package report

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
)

// Sections travel through the engine's persistent cache tier
// (internal/store) as gob payloads, so the Block implementations must be
// registered and Cell — whose value is deliberately unexported — needs an
// explicit wire format.
func init() {
	gob.Register(Table{})
	gob.Register(Series{})
	gob.Register(Text(""))
}

// Cell wire format: one tag byte followed by the value, which keeps the
// exact Go type and bits, so a section decoded from disk renders
// byte-identically in every encoder.  The tags are on disk in every store
// an earlier build wrote, so a tag is never renumbered
// (TestCellWireFormatIsStable).  Tags 4, 5, 7 and 8 are retired and must
// not be reused: earlier builds could write int64, uint64, float32 and
// nested-gob cells under them.  A record holding one fails to decode, which
// the store counts as a miss.
const (
	cellNil     byte = 0 // no payload
	cellString  byte = 1 // raw bytes
	cellFloat64 byte = 2 // 8-byte big-endian IEEE 754 bits
	cellInt     byte = 3 // varint
	cellBool    byte = 6 // one byte, 0 or 1
)

// GobEncode implements gob.GobEncoder.
func (c Cell) GobEncode() ([]byte, error) {
	switch v := c.v.(type) {
	case string:
		return append([]byte{cellString}, v...), nil
	case float64:
		var b [9]byte
		b[0] = cellFloat64
		binary.BigEndian.PutUint64(b[1:], math.Float64bits(v))
		return b[:], nil
	case int:
		return binary.AppendVarint([]byte{cellInt}, int64(v)), nil
	case bool:
		b := []byte{cellBool, 0}
		if v {
			b[1] = 1
		}
		return b, nil
	}
	return []byte{cellNil}, nil
}

// GobDecode implements gob.GobDecoder.
func (c *Cell) GobDecode(data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("report: empty cell encoding")
	}
	tag, payload := data[0], data[1:]
	switch tag {
	case cellNil:
		c.v = nil
	case cellString:
		c.v = string(payload)
	case cellFloat64:
		if len(payload) != 8 {
			return fmt.Errorf("report: bad float64 cell length %d", len(payload))
		}
		c.v = math.Float64frombits(binary.BigEndian.Uint64(payload))
	case cellInt:
		v, n := binary.Varint(payload)
		if n <= 0 {
			return fmt.Errorf("report: bad int cell")
		}
		c.v = int(v)
	case cellBool:
		if len(payload) != 1 {
			return fmt.Errorf("report: bad bool cell length %d", len(payload))
		}
		c.v = payload[0] != 0
	default:
		return fmt.Errorf("report: unknown cell tag %d", tag)
	}
	return nil
}
