package engine

import (
	"fmt"
	"strings"
	"sync"

	"resilientloc/internal/acoustics"
	"resilientloc/internal/engine/params"
)

// A Factory is a parameter-addressable scenario constructor: where the
// library in scenarios.go registers a handful of compiled-in operating
// points (NoiseSweep(6), AnchorDropout(12), ...), a factory exposes the
// whole parameter space behind the constructor on the wire — any point a
// job spec's params can name, validated against the declared schema.
type Factory struct {
	// Name addresses the factory from spec.JobSpec.ID. Factory names are
	// disjoint from library scenario names: "ranging-noise" is the factory,
	// "ranging-noise-6db" the compiled-in instance.
	Name        string
	Description string
	// Params declares the accepted parameters: names, types, defaults,
	// bounds. Validation is strict — unknown or out-of-range params are
	// rejected by name before Build runs.
	Params params.Schema
	// Build constructs the scenario for a resolved param map (every declared
	// parameter present; see params.Schema.Resolve).
	Build func(p params.Map) (Scenario, error)
}

// envEnum is the environment enum in display order.
var envEnum = acoustics.PresetNames()

// Factories returns the parameterized scenario factories in display order.
func Factories() []Factory {
	return []Factory{
		{
			Name:        "ranging-noise",
			Description: "refined ranging of a 15 m grass pair vs a raised ambient noise floor",
			Params: params.Schema{
				{Name: "delta_db", Kind: params.Float, Default: params.Num(6), Min: -20, Max: 40,
					Help: "ambient noise floor delta over the grass preset, dB"},
			},
			Build: func(p params.Map) (Scenario, error) {
				return NoiseSweep(p.Float("delta_db")), nil
			},
		},
		{
			Name:        "multilat-dropout",
			Description: "town multilateration with anchors randomly dropped each trial",
			Params: params.Schema{
				{Name: "drop", Kind: params.Int, Default: params.Num(6), Min: 0, Max: 18,
					Help: "anchors removed at random from the town's 18"},
			},
			Build: func(p params.Map) (Scenario, error) {
				return AnchorDropout(p.Int("drop")), nil
			},
		},
		{
			Name:        "multilat-grid",
			Description: "progressive multilateration on a rows×cols offset grid, 10% random anchors",
			Params: params.Schema{
				{Name: "rows", Kind: params.Int, Default: params.Num(14), Min: 2, Max: 32,
					Help: "grid rows"},
				{Name: "cols", Kind: params.Int, Default: params.Num(14), Min: 2, Max: 32,
					Help: "grid columns"},
			},
			Build: func(p params.Map) (Scenario, error) {
				return LargeGrid(p.Int("rows"), p.Int("cols")), nil
			},
		},
		{
			Name:        "maxrange",
			Description: "detection success vs distance sweep (paper §3.6.2) at any environment and threshold",
			Params: params.Schema{
				{Name: "env", Kind: params.String, Default: params.Str("grass"), Enum: envEnum,
					Help: "acoustic environment preset"},
				{Name: "detect_t", Kind: params.Int, Default: params.Num(2), Min: 1, Max: 8,
					Help: "detection threshold T"},
				{Name: "rounds", Kind: params.Int, Default: params.Num(40), Min: 1, Max: 400,
					Help: "measurement attempts per distance point"},
			},
			Build: func(p params.Map) (Scenario, error) {
				env, err := acoustics.Preset(p.Str("env"))
				if err != nil {
					return Scenario{}, err
				}
				return MaxRangeScenario(env, uint8(p.Int("detect_t")), DefaultMaxRangeDistances(), p.Int("rounds")), nil
			},
		},
		{
			Name:        "mobility-waypoint",
			Description: "town multilateration under random-waypoint motion: measurements taken mid-walk",
			Params: params.Schema{
				{Name: "speed_mps", Kind: params.Float, Default: params.Num(1), Min: 0, Max: 10,
					Help: "node walking speed, m/s"},
				{Name: "epoch_s", Kind: params.Float, Default: params.Num(4), Min: 0.5, Max: 60,
					Help: "ranging epoch length, s"},
			},
			Build: func(p params.Map) (Scenario, error) {
				return MobilityWaypoint(p.Float("speed_mps"), p.Float("epoch_s")), nil
			},
		},
		{
			Name:        "ranging-mixed-env",
			Description: "ranging a grid deployment that straddles two acoustic environments",
			Params: params.Schema{
				{Name: "env_a", Kind: params.String, Default: params.Str("grass"), Enum: envEnum,
					Help: "environment left of the boundary"},
				{Name: "env_b", Kind: params.String, Default: params.Str("pavement"), Enum: envEnum,
					Help: "environment right of the boundary"},
				{Name: "boundary_frac", Kind: params.Float, Default: params.Num(0.5), Min: 0, Max: 1,
					Help: "boundary position as a fraction of the grid's width"},
			},
			Build: func(p params.Map) (Scenario, error) {
				envA, err := acoustics.Preset(p.Str("env_a"))
				if err != nil {
					return Scenario{}, err
				}
				envB, err := acoustics.Preset(p.Str("env_b"))
				if err != nil {
					return Scenario{}, err
				}
				return MixedEnvRanging(envA, envB, p.Float("boundary_frac")), nil
			},
		},
	}
}

var (
	factoryOnce  sync.Once
	factoryIndex map[string]Factory
)

// FindFactory returns the factory with the given name via a map-backed index
// built once per process.
func FindFactory(name string) (Factory, bool) {
	factoryOnce.Do(func() {
		all := Factories()
		factoryIndex = make(map[string]Factory, len(all))
		for _, f := range all {
			factoryIndex[f.Name] = f
		}
	})
	f, ok := factoryIndex[name]
	return f, ok
}

// BuildScenario resolves a scenario name plus params into a runnable
// scenario — the one entry point the spec layer uses for both factories and
// library instances. For a factory name it validates p against the schema,
// fills defaults, and builds; the returned map is the fully-resolved
// operating point (what cache keys embed). For a library name it returns the
// compiled-in scenario and a nil map; passing params to a library instance
// is an error, since those points are already fixed by name.
func BuildScenario(name string, p params.Map) (Scenario, params.Map, error) {
	if f, ok := FindFactory(name); ok {
		resolved, err := f.Params.Resolve(p)
		if err != nil {
			return Scenario{}, nil, fmt.Errorf("scenario %q: %w", name, err)
		}
		s, err := f.Build(resolved)
		if err != nil {
			return Scenario{}, nil, fmt.Errorf("scenario %q: %w", name, err)
		}
		return s, resolved, nil
	}
	if s, ok := Find(name); ok {
		if len(p) > 0 {
			return Scenario{}, nil, fmt.Errorf(
				"scenario %q takes no parameters (params: %s); parameterized factories: %s",
				name, p.Canonical(), strings.Join(factoryNames(), ", "))
		}
		return s, nil, nil
	}
	return Scenario{}, nil, fmt.Errorf("unknown scenario %q", name)
}

func factoryNames() []string {
	all := Factories()
	names := make([]string, len(all))
	for i, f := range all {
		names[i] = f.Name
	}
	return names
}
