package engine

import (
	"fmt"
	"strconv"
)

// Keyer lets a value append its own stable key rendering without going
// through reflection.  Implementations must produce exactly the bytes fmt's
// %v verb would (so keys — and therefore the RNG streams seeded from them —
// are unchanged by the fast path), and must depend only on the value: keys
// are cache identities and RNG seeds, so two equal values must render
// identically across runs and platforms.
type Keyer interface {
	AppendKey(b []byte) []byte
}

// appendPart renders one fingerprint part.  The typed cases cover the
// experiment layers' common part types without fmt's reflection; every case
// matches the bytes %v would produce for that type, and anything else falls
// back to %v itself, so Fingerprint's output is stable across the rewrite.
func appendPart(b []byte, p any) []byte {
	switch v := p.(type) {
	case string:
		return append(b, v...)
	case int:
		return strconv.AppendInt(b, int64(v), 10)
	case int64:
		return strconv.AppendInt(b, v, 10)
	case float64:
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	case bool:
		return strconv.AppendBool(b, v)
	case Keyer:
		return v.AppendKey(b)
	case error:
		return append(b, v.Error()...)
	case fmt.Stringer:
		return append(b, v.String()...)
	default:
		return fmt.Appendf(b, "%v", p)
	}
}
