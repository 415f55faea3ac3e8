package hitsndiffs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"hitsndiffs/internal/c1p"
	"hitsndiffs/internal/core"
	"hitsndiffs/internal/truth"
)

// MethodInfo describes a registered ability-discovery method: its
// registry name plus the applicability constraints tools need to route
// requests (a binary-only method cannot serve a 4-option workload, a
// consistent-only method fails on noisy data, and so on).
type MethodInfo struct {
	// Name is the registry key (e.g. "HnD-power"), identical to the
	// Name() of the rankers the factory produces.
	Name string
	// Summary is a one-line human-readable description.
	Summary string
	// BinaryOnly methods error on items with more than two options.
	BinaryOnly bool
	// HomogeneousOnly methods require every item to share one option
	// count.
	HomogeneousOnly bool
	// ConsistentOnly methods fail unless the responses admit a perfect
	// consecutive-ones ordering (the paper's "consistent" case).
	ConsistentOnly bool
	// Iterative methods honor WithTol, WithMaxIter and WithSeed.
	Iterative bool
}

// Constraints renders the applicability flags as a short comma-separated
// tag list ("binary-only, iterative"), or "-" when unconstrained and
// closed-form. Used by cmd/hnd -list.
func (i MethodInfo) Constraints() string {
	var tags []string
	if i.BinaryOnly {
		tags = append(tags, "binary-only")
	}
	if i.HomogeneousOnly {
		tags = append(tags, "homogeneous-only")
	}
	if i.ConsistentOnly {
		tags = append(tags, "consistent-only")
	}
	if i.Iterative {
		tags = append(tags, "iterative")
	}
	if len(tags) == 0 {
		return "-"
	}
	return strings.Join(tags, ", ")
}

// Factory builds a configured Ranker for a registered method.
type Factory func(opts ...Option) Ranker

type methodEntry struct {
	info    MethodInfo
	factory Factory
}

var methodRegistry = struct {
	sync.RWMutex
	m map[string]methodEntry
}{m: make(map[string]methodEntry)}

// Register adds a method to the registry under info.Name. It errors on an
// empty name, a nil factory, or a name already taken; libraries extending
// this one register custom methods the same way the built-ins do.
func Register(info MethodInfo, factory Factory) error {
	if info.Name == "" {
		return fmt.Errorf("hitsndiffs: Register needs a method name")
	}
	if factory == nil {
		return fmt.Errorf("hitsndiffs: Register(%q) needs a factory", info.Name)
	}
	methodRegistry.Lock()
	defer methodRegistry.Unlock()
	if _, dup := methodRegistry.m[info.Name]; dup {
		return fmt.Errorf("hitsndiffs: method %q already registered", info.Name)
	}
	methodRegistry.m[info.Name] = methodEntry{info: info, factory: factory}
	return nil
}

// mustRegister is Register for the built-in init-time registrations.
func mustRegister(info MethodInfo, factory Factory) {
	if err := Register(info, factory); err != nil {
		panic(err)
	}
}

// New resolves a registered method by name and builds it with the given
// options. It is how cmd/hnd, the experiments harness and the Engine
// construct methods; unknown names report the available ones.
func New(name string, opts ...Option) (Ranker, error) {
	methodRegistry.RLock()
	e, ok := methodRegistry.m[name]
	methodRegistry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("hitsndiffs: unknown method %q (known: %v)", name, MethodNames())
	}
	return e.factory(opts...), nil
}

// MethodNames returns the names of all registered methods in sorted order.
func MethodNames() []string {
	methodRegistry.RLock()
	names := make([]string, 0, len(methodRegistry.m))
	for name := range methodRegistry.m {
		names = append(names, name)
	}
	methodRegistry.RUnlock()
	sort.Strings(names)
	return names
}

// Describe returns the metadata of a registered method.
func Describe(name string) (MethodInfo, bool) {
	methodRegistry.RLock()
	e, ok := methodRegistry.m[name]
	methodRegistry.RUnlock()
	return e.info, ok
}

// MethodInfos returns the metadata of every registered method, sorted by
// name.
func MethodInfos() []MethodInfo {
	names := MethodNames()
	out := make([]MethodInfo, 0, len(names))
	for _, n := range names {
		info, _ := Describe(n)
		out = append(out, info)
	}
	return out
}

// The built-in general-purpose methods (cheating baselines such as
// True-Answer and GRM-estimator need ground-truth inputs and therefore
// stay constructor-only).
func init() {
	spectral := func(name, summary string, f Factory) {
		mustRegister(MethodInfo{Name: name, Summary: summary, Iterative: true}, f)
	}
	spectral("HnD-power", "HITSnDIFFS power iteration, O(mn) per iteration (paper's Algorithm 1)",
		func(opts ...Option) Ranker { return core.HNDPower{Opts: newSettings(opts).coreOptions()} })
	spectral("HnD-direct", "HITSnDIFFS on the materialized update matrix via Arnoldi (O(m²n))",
		func(opts ...Option) Ranker { return core.HNDDirect{Opts: newSettings(opts).coreOptions()} })
	spectral("HnD-deflation", "HITSnDIFFS via Hotelling deflation, matrix-free",
		func(opts ...Option) Ranker { return core.HNDDeflation{Opts: newSettings(opts).coreOptions()} })
	spectral("ABH-power", "ABH spectral seriation by shifted power iteration (paper's Algorithm 2)",
		func(opts ...Option) Ranker { return core.ABHPower{Opts: newSettings(opts).coreOptions()} })
	spectral("ABH-direct", "ABH Fiedler vector on the materialized Laplacian (O(m²n))",
		func(opts ...Option) Ranker { return core.ABHDirect{Opts: newSettings(opts).coreOptions()} })
	spectral("ABH-lanczos", "ABH Fiedler vector by matrix-free symmetric Lanczos",
		func(opts ...Option) Ranker { return core.ABHLanczos{Opts: newSettings(opts).coreOptions()} })

	mustRegister(MethodInfo{
		Name: "BL", Summary: "Booth–Lueker PQ-tree ordering, exact on consistent responses",
		ConsistentOnly: true,
	}, func(opts ...Option) Ranker { return c1p.BL{} })

	iterTruth := func(name, summary string, build func(truth.Options) Ranker) {
		mustRegister(MethodInfo{Name: name, Summary: summary, Iterative: true},
			func(opts ...Option) Ranker { return build(newSettings(opts).truthOptions()) })
	}
	iterTruth("HITS", "Kleinberg's hubs-and-authorities on the user-option graph",
		func(o truth.Options) Ranker { return truth.HITS{Opts: o} })
	iterTruth("TruthFinder", "TruthFinder of Yin, Han and Yu",
		func(o truth.Options) Ranker { return truth.TruthFinder{Opts: o} })
	iterTruth("Invest", "Investment of Pasternack and Roth (fixed 10 rounds)",
		func(o truth.Options) Ranker { return truth.Investment{Opts: o} })
	iterTruth("PooledInv", "PooledInvestment of Pasternack and Roth (fixed 10 rounds)",
		func(o truth.Options) Ranker { return truth.PooledInvestment{Opts: o} })

	mustRegister(MethodInfo{
		Name: "MajorityVote", Summary: "agreement with the per-item plurality option",
	}, func(opts ...Option) Ranker { return truth.MajorityVote{} })

	mustRegister(MethodInfo{
		Name: "Dawid-Skene", Summary: "Dawid–Skene confusion-matrix EM",
		HomogeneousOnly: true, Iterative: true,
	}, func(opts ...Option) Ranker { return truth.DawidSkene{Opts: newSettings(opts).truthOptions()} })

	mustRegister(MethodInfo{
		Name: "Ghosh-spectral", Summary: "binary spectral method of Ghosh, Kale and McAfee",
		BinaryOnly: true, Iterative: true,
	}, func(opts ...Option) Ranker { return truth.GhoshSpectral{Opts: newSettings(opts).truthOptions()} })

	mustRegister(MethodInfo{
		Name: "Dalvi-spectral", Summary: "binary spectral method of Dalvi et al.",
		BinaryOnly: true, Iterative: true,
	}, func(opts ...Option) Ranker { return truth.DalviSpectral{Opts: newSettings(opts).truthOptions()} })

	mustRegister(MethodInfo{
		Name: "GLAD", Summary: "GLAD EM of Whitehill et al. for binary items",
		BinaryOnly: true, Iterative: true,
	}, func(opts ...Option) Ranker { return truth.GLAD{Opts: newSettings(opts).truthOptions()} })
}
