// Package microarch contains the event-driven microarchitecture simulations
// behind Section 5.2 (Figure 15): dataflow execution of a benchmark circuit
// on top of different ancilla-generation and data-movement organisations —
// QLA and CQLA from prior work, their generalisations GQLA and GCQLA with
// replicated per-qubit ancilla generation, and the paper's Fully-Multiplexed
// ancilla distribution (the organisation Qalypso builds on).
package microarch

import (
	"fmt"
	"strings"
	"sync"

	"speedofdata/internal/factory"
	"speedofdata/internal/iontrap"
	"speedofdata/internal/layout"
	"speedofdata/internal/network"
	"speedofdata/internal/schedule"
)

// Architecture enumerates the simulated microarchitectures.
type Architecture int

const (
	// QLA dedicates one serial ancilla generator to every data qubit and
	// teleports operands to each other for two-qubit gates (Metodi et al.).
	QLA Architecture = iota
	// GQLA generalises QLA with several parallel generators per data qubit.
	GQLA
	// CQLA adds a compute cache of data qubits; gates run in the cache and
	// misses cost teleport-based fetches and writebacks (Thaker et al.).
	CQLA
	// GCQLA generalises CQLA with several generators per cache slot.
	GCQLA
	// FullyMultiplexed distributes encoded ancillae from shared pipelined
	// factories to whichever data qubit needs them (Figure 14b), the
	// organisation Qalypso adopts.
	FullyMultiplexed
)

var archNames = [...]string{
	QLA:              "QLA",
	GQLA:             "GQLA",
	CQLA:             "CQLA",
	GCQLA:            "GCQLA",
	FullyMultiplexed: "Fully-Multiplexed",
}

// String names the architecture the way Figure 15's legend does.
func (a Architecture) String() string {
	if a < 0 || int(a) >= len(archNames) {
		return fmt.Sprintf("arch(%d)", int(a))
	}
	return archNames[a]
}

// Architectures returns the simulated organisations in presentation order.
func Architectures() []Architecture {
	return []Architecture{QLA, GQLA, CQLA, GCQLA, FullyMultiplexed}
}

// ParseArchitecture resolves a request parameter or flag value to an
// architecture.  Matching is case-insensitive and accepts both the Figure 15
// legend names ("Fully-Multiplexed") and compact spellings ("fm",
// "fullymultiplexed") suitable for query strings.
func ParseArchitecture(name string) (Architecture, error) {
	canon := strings.ToLower(strings.ReplaceAll(strings.ReplaceAll(name, "-", ""), "_", ""))
	for _, a := range Architectures() {
		if canon == strings.ToLower(strings.ReplaceAll(a.String(), "-", "")) {
			return a, nil
		}
	}
	if canon == "fm" {
		return FullyMultiplexed, nil
	}
	names := make([]string, 0, len(archNames))
	for _, n := range archNames {
		names = append(names, n)
	}
	return 0, fmt.Errorf("microarch: unknown architecture %q (want one of %s)", name, strings.Join(names, ", "))
}

// Config describes one simulation run.
type Config struct {
	Arch Architecture
	// Latency supplies gate and QEC timings (Section 3 model).
	Latency schedule.LatencyModel
	// Movement supplies ballistic and teleportation costs (Section 5.3).
	Movement layout.MovementModel

	// GeneratorsPerQubit is the number of serial (simple-factory) ancilla
	// generators at each data qubit (QLA uses 1; GQLA sweeps it).  For CQLA
	// and GCQLA it is the number of generators per cache slot.
	GeneratorsPerQubit int
	// CacheSlots is the compute-cache capacity in data qubits (CQLA/GCQLA).
	CacheSlots int
	// SharedFactories is the number of shared pipelined zero factories
	// (Fully-Multiplexed).
	SharedFactories int

	// Pi8BandwidthPerMs optionally records the benchmark's π/8 ancilla
	// demand so the reported factory area can include the π/8 encoders and
	// their feed factories (Table 9 accounting); zero omits them.
	Pi8BandwidthPerMs float64

	// BufferAncillae bounds each ancilla source's output buffer, in encoded
	// ancillae.  Zero (the default) buffers infinitely, reproducing the
	// paper's closed-form token-bucket model bit for bit; a positive
	// capacity switches the simulation to finite-buffer dynamics where
	// production stalls when the buffer fills.
	BufferAncillae float64

	// Network optionally places the data qubits on a 2D-mesh teleport
	// interconnect (internal/network): teleport accounting then delegates
	// to the mesh cost model, so every teleport pays the dimension-order
	// routed hop distance between its operands' tiles — max(1, hops) times
	// both the teleport latency and the teleport ancillae — instead of the
	// flat single-hop constant.  Qubits map to tiles with the topology's
	// block-cyclic TileOf; a 1×1 mesh reproduces the flat model exactly.
	// The zero value keeps the flat model.  (A value, not a pointer: Config
	// participates in engine job fingerprints via its %v rendering, which
	// must reflect the mesh contents, never a heap address.)
	Network network.Topology
}

// DefaultConfig returns a configuration for the given architecture with the
// paper's technology parameters and one generation resource per site.
func DefaultConfig(arch Architecture) Config {
	tech := iontrap.Default()
	return Config{
		Arch:               arch,
		Latency:            schedule.DefaultLatencyModel(),
		Movement:           layout.DefaultMovementModel(tech, 32),
		GeneratorsPerQubit: 1,
		CacheSlots:         16,
		SharedFactories:    1,
	}
}

// Validate checks the configuration for the selected architecture.
func (c Config) Validate() error {
	if err := c.Latency.Validate(); err != nil {
		return err
	}
	if err := c.Movement.Validate(); err != nil {
		return err
	}
	switch c.Arch {
	case QLA, GQLA:
		if c.GeneratorsPerQubit <= 0 {
			return fmt.Errorf("microarch: %v needs at least one generator per qubit", c.Arch)
		}
	case CQLA, GCQLA:
		if c.GeneratorsPerQubit <= 0 {
			return fmt.Errorf("microarch: %v needs at least one generator per cache slot", c.Arch)
		}
		if c.CacheSlots <= 0 {
			return fmt.Errorf("microarch: %v needs a positive cache size", c.Arch)
		}
	case FullyMultiplexed:
		if c.SharedFactories <= 0 {
			return fmt.Errorf("microarch: %v needs at least one shared factory", c.Arch)
		}
	default:
		return fmt.Errorf("microarch: unknown architecture %v", c.Arch)
	}
	if c.Pi8BandwidthPerMs < 0 {
		return fmt.Errorf("microarch: negative π/8 bandwidth")
	}
	if c.BufferAncillae < 0 {
		return fmt.Errorf("microarch: negative ancilla buffer capacity %v", c.BufferAncillae)
	}
	if c.Network != (network.Topology{}) {
		if err := c.Network.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// techConsts are the factory-derived constants of one technology.  Building
// a factory Design walks the bandwidth-matching arithmetic and allocates
// latency expressions, and Simulate needs these numbers on every call of a
// sweep, so they are memoised per technology (keyed by iontrap.TechKey).
type techConsts struct {
	generatorRatePerMs float64
	simpleArea         iontrap.Area
	pipelined          factory.Design
	pi8                factory.Design
}

var techConstsMemo sync.Map // iontrap.TechKey -> *techConsts

func constsFor(tech iontrap.Technology) *techConsts {
	key := tech.Key()
	if v, ok := techConstsMemo.Load(key); ok {
		return v.(*techConsts)
	}
	simple := factory.SimpleZeroFactory{Tech: tech}
	c := &techConsts{
		generatorRatePerMs: simple.ThroughputPerMs(),
		simpleArea:         simple.Area(),
		pipelined:          factory.PipelinedZeroFactory(tech),
		pi8:                factory.Pi8Factory(tech),
	}
	v, _ := techConstsMemo.LoadOrStore(key, c)
	return v.(*techConsts)
}

// generatorRatePerMs is the encoded-zero production rate of one per-qubit
// serial generator (the simple factory of Section 4.3).
func (c Config) generatorRatePerMs() float64 {
	return constsFor(c.Latency.Tech).generatorRatePerMs
}

// sharedFactoryRatePerMs is the rate of one shared pipelined factory.
func (c Config) sharedFactoryRatePerMs() float64 {
	return constsFor(c.Latency.Tech).pipelined.ThroughputPerMs
}

// AncillaFactoryArea reports the total ancilla-generation area implied by the
// configuration for a circuit with nQubits data qubits, optionally including
// the π/8 encoding supply (Figure 15's x axis).
func (c Config) AncillaFactoryArea(nQubits int) iontrap.Area {
	var area iontrap.Area
	tc := constsFor(c.Latency.Tech)
	switch c.Arch {
	case QLA, GQLA:
		area = iontrap.Area(float64(nQubits*c.GeneratorsPerQubit) * float64(tc.simpleArea))
	case CQLA, GCQLA:
		area = iontrap.Area(float64(c.CacheSlots*c.GeneratorsPerQubit) * float64(tc.simpleArea))
	case FullyMultiplexed:
		area = iontrap.Area(float64(c.SharedFactories) * float64(tc.pipelined.TotalArea()))
	}
	if c.Pi8BandwidthPerMs > 0 {
		area += factory.Pi8SupplyArea(tc.pi8, tc.pipelined, c.Pi8BandwidthPerMs)
	}
	return area
}
