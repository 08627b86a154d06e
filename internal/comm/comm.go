// Package comm generates the message streams of the communication
// patterns studied in the paper: all-to-all, n-body (ring subphases plus a
// chordal subphase), and random, plus the ring and all-pairs ping-pong
// patterns from the CPlant communication test suite of Leung et al.
// (Figure 1).
//
// Messages are expressed in job-local ranks 0..p-1; the simulator maps
// ranks to the processors the allocator assigned. Patterns repeat forever;
// the job's message quota decides when to stop drawing from them.
// Generators hand their messages out a burst at a time, one subphase
// per call, so a job's step is one call here and one into the network.
package comm

import (
	"fmt"

	"meshalloc/internal/snap"
	"meshalloc/internal/stats"
)

// Msg is one message between two job-local ranks.
type Msg struct {
	Src, Dst int
}

// Generator is one job's message stream: rounds of phases, repeated
// forever. A phase models one communication subphase whose messages are
// logically concurrent (e.g. one ring shift). Deterministic patterns
// walk a schedule shared by every job of the same size; the random
// pattern draws each message from the engine RNG. Patterns build
// generators, and ReadState sets one to a snapshot's state; the zero
// Generator is not usable.
type Generator struct {
	// name is the pattern that built the generator ("single" for the
	// one-rank schedule), so a snapshot can rebuild a schedule from the
	// pattern registry instead of serializing it, and p is the job size.
	// A schedule generator walks phases, one round of phases of
	// messages, never written and possibly shared. phase and idx are the
	// cursor: the next message to hand out.
	name       string
	p          int
	phases     [][]Msg
	phase, idx int
	// A random generator (phases == nil) draws from rng and counts the
	// messages drawn. A Mixed job's schedule keeps rng too, so that
	// ReadState can make it the random generator a snapshot names.
	rng   *stats.RNG
	count int
	// held is the first message of the next phase once a burst has
	// found its phase's end with budget left: finding the boundary
	// takes drawing that message, so it is held for the next burst, and
	// holding says it has not been handed out yet. A schedule's cursor
	// stays on its held message.
	held    Msg
	holding bool
}

// Burst returns the next burst of at most budget messages, budget >= 1:
// the held message if there is one, then the rest of its phase. When
// the phase ends with budget left, the next phase's first message is
// drawn ahead and held, so a burst never crosses a phase boundary. A
// burst that starts mid-phase (budget 1 every time, or a restored
// cursor) runs to the phase's end at most.
//
// A schedule's burst is a subslice of its shared schedule; the random
// pattern draws into *buf, growing it as needed, so a caller that keeps
// the buffer allocates nothing in steady state. Either way the result
// is read-only and valid until the next call.
func (g *Generator) Burst(budget int, buf *[]Msg) []Msg {
	if g.phases == nil {
		return g.randomBurst(budget, buf)
	}
	ph := g.phases[g.phase]
	start, end := g.idx, len(ph)
	if end-start > budget {
		end = start + budget
	}
	g.holding = false
	if end < len(ph) {
		g.idx = end
		return ph[start:end]
	}
	g.phase, g.idx = g.phase+1, 0
	if g.phase == len(g.phases) {
		g.phase = 0
	}
	if end-start < budget {
		g.held, g.holding = g.phases[g.phase][0], true
	}
	return ph[start:end]
}

// randomBurst is Burst for the random pattern, whose phases are runs of
// p messages counted from the job's first.
func (g *Generator) randomBurst(budget int, buf *[]Msg) []Msg {
	out := (*buf)[:0]
	if g.holding {
		out = append(out, g.held)
		g.holding = false
	} else {
		out = append(out, g.draw())
	}
	for len(out) < budget {
		if g.count%g.p == 0 {
			g.held, g.holding = g.draw(), true
			break
		}
		out = append(out, g.draw())
	}
	*buf = out
	return out
}

// draw returns a message between a uniformly random ordered pair of
// distinct ranks.
func (g *Generator) draw() Msg {
	src := g.rng.Intn(g.p)
	dst := g.rng.Intn(g.p - 1)
	if dst >= src {
		dst++
	}
	g.count++
	return Msg{Src: src, Dst: dst}
}

// Held returns the message drawn ahead for the next burst and whether
// it is still to be handed out; the message means nothing once it is
// not.
func (g *Generator) Held() (Msg, bool) { return g.held, g.holding }

// Pattern builds generators for jobs of a given size.
type Pattern interface {
	// Name identifies the pattern, e.g. "nbody".
	Name() string
	// Generator returns the message stream for a job with p processors.
	// Randomized patterns draw from rng; deterministic patterns ignore
	// it. p must be positive.
	Generator(p int, rng *stats.RNG) Generator
}

// ByName returns the pattern registered under name. Recognized names:
// "alltoall", "nbody", "random", "ring", "pingpong", "testsuite".
func ByName(name string) (Pattern, error) {
	switch name {
	case "alltoall":
		return AllToAll{}, nil
	case "nbody":
		return NBody{}, nil
	case "random":
		return Random{}, nil
	case "ring":
		return Ring{}, nil
	case "pingpong":
		return PingPong{}, nil
	case "testsuite":
		return TestSuite{}, nil
	case "mixed":
		return Mixed{}, nil
	default:
		return nil, fmt.Errorf("comm: unknown pattern %q", name)
	}
}

// All returns every registered pattern name.
func All() []string {
	return []string{"alltoall", "nbody", "random", "ring", "pingpong", "testsuite", "mixed"}
}

// Cached wraps a deterministic pattern with a per-size schedule memo:
// every job of p processors shares one immutable phase table instead of
// rebuilding it (for all-to-all, p*(p-1) messages of garbage per job).
// Only patterns on an explicit allowlist are wrapped — a pattern must be
// known to produce the same schedule for every job of a size — so any
// other pattern, including future additions to ByName, passes through
// unwrapped and merely misses the optimization rather than replaying one
// job's random stream. Generators remain independently iterable; only
// the read-only schedule is shared. The wrapper is not safe for
// concurrent Generator calls, matching the Pattern contract.
func Cached(pat Pattern) Pattern {
	switch pat.(type) {
	case AllToAll, NBody, Ring, PingPong, TestSuite:
		return &cachedPattern{pat: pat, bySize: map[int][][]Msg{}}
	}
	return pat
}

type cachedPattern struct {
	pat    Pattern
	bySize map[int][][]Msg
}

// Name implements Pattern.
func (c *cachedPattern) Name() string { return c.pat.Name() }

// Generator implements Pattern.
func (c *cachedPattern) Generator(p int, rng *stats.RNG) Generator {
	checkSize(p)
	phases, ok := c.bySize[p]
	if !ok {
		gen := c.pat.Generator(p, rng)
		if gen.phases == nil {
			// An allowlisted pattern grew a non-schedule generator;
			// degrade to pass-through rather than guessing.
			return gen
		}
		phases = gen.phases
		c.bySize[p] = phases
	}
	return schedule(c.pat.Name(), p, phases)
}

// schedule returns a generator walking phases, a fixed per-round
// message schedule, from its start.
func schedule(name string, p int, phases [][]Msg) Generator {
	return Generator{name: name, p: p, phases: phases}
}

// singleRank returns the degenerate schedule for one-processor jobs,
// which only talk to themselves.
func singleRank() Generator {
	return schedule("single", 1, [][]Msg{{{Src: 0, Dst: 0}}})
}

// AllToAll is the all-to-all pattern: each processor sends one message to
// every other processor of the job. One round is a single phase of
// p*(p-1) logically concurrent messages.
type AllToAll struct{}

// Name implements Pattern.
func (AllToAll) Name() string { return "alltoall" }

// Generator implements Pattern.
func (AllToAll) Generator(p int, _ *stats.RNG) Generator {
	checkSize(p)
	if p == 1 {
		return singleRank()
	}
	msgs := make([]Msg, 0, p*(p-1))
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i != j {
				msgs = append(msgs, Msg{Src: i, Dst: j})
			}
		}
	}
	return schedule("alltoall", p, [][]Msg{msgs})
}

// NBody is the paper's n-body force-computation pattern. The processors
// form a virtual ring; one round consists of floor(p/2) ring subphases in
// which every processor sends to its successor, followed by one chordal
// subphase in which every processor sends halfway across the ring to
// return accumulated forces to the owning processor.
type NBody struct{}

// Name implements Pattern.
func (NBody) Name() string { return "nbody" }

// Generator implements Pattern.
func (NBody) Generator(p int, _ *stats.RNG) Generator {
	checkSize(p)
	if p == 1 {
		return singleRank()
	}
	var phases [][]Msg
	ringPhase := make([]Msg, p)
	for i := 0; i < p; i++ {
		ringPhase[i] = Msg{Src: i, Dst: (i + 1) % p}
	}
	for s := 0; s < p/2; s++ {
		phases = append(phases, ringPhase)
	}
	chordal := make([]Msg, p)
	for i := 0; i < p; i++ {
		chordal[i] = Msg{Src: i, Dst: (i + p/2) % p}
	}
	phases = append(phases, chordal)
	return schedule("nbody", p, phases)
}

// Ring is the plain ring-shift pattern from the CPlant test suite: each
// processor sends to its successor, one phase per round.
type Ring struct{}

// Name implements Pattern.
func (Ring) Name() string { return "ring" }

// Generator implements Pattern.
func (Ring) Generator(p int, _ *stats.RNG) Generator {
	checkSize(p)
	if p == 1 {
		return singleRank()
	}
	msgs := make([]Msg, p)
	for i := 0; i < p; i++ {
		msgs[i] = Msg{Src: i, Dst: (i + 1) % p}
	}
	return schedule("ring", p, [][]Msg{msgs})
}

// PingPong is the all-pairs ping-pong pattern from the CPlant test suite:
// for every unordered pair, a message in each direction, each exchange
// its own phase.
type PingPong struct{}

// Name implements Pattern.
func (PingPong) Name() string { return "pingpong" }

// Generator implements Pattern.
func (PingPong) Generator(p int, _ *stats.RNG) Generator {
	checkSize(p)
	if p == 1 {
		return singleRank()
	}
	var phases [][]Msg
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			phases = append(phases, []Msg{{Src: i, Dst: j}, {Src: j, Dst: i}})
		}
	}
	return schedule("pingpong", p, phases)
}

// Random sends each message between a uniformly random ordered pair of
// distinct ranks. Messages are grouped into phases of p so that, like the
// structured patterns, roughly every processor is active per subphase.
type Random struct{}

// Name implements Pattern.
func (Random) Name() string { return "random" }

// Generator implements Pattern.
func (Random) Generator(p int, rng *stats.RNG) Generator {
	checkSize(p)
	if p == 1 {
		return singleRank()
	}
	return Generator{name: "random", p: p, rng: rng}
}

// TestSuite is the communication test of Leung et al. behind the paper's
// Figure 1: one round of all-to-all broadcast, one round of all-pairs
// ping-pong, and one ring shift, repeated (in the CPlant experiments, one
// hundred times).
type TestSuite struct{}

// Name implements Pattern.
func (TestSuite) Name() string { return "testsuite" }

// Generator implements Pattern.
func (TestSuite) Generator(p int, rng *stats.RNG) Generator {
	checkSize(p)
	if p == 1 {
		return singleRank()
	}
	var phases [][]Msg
	// All-to-all broadcast: one phase.
	broadcast := make([]Msg, 0, p*(p-1))
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i != j {
				broadcast = append(broadcast, Msg{Src: i, Dst: j})
			}
		}
	}
	phases = append(phases, broadcast)
	// All-pairs ping-pong: one exchange per phase.
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			phases = append(phases, []Msg{{Src: i, Dst: j}, {Src: j, Dst: i}})
		}
	}
	// Ring shift: one phase.
	ringPhase := make([]Msg, p)
	for i := 0; i < p; i++ {
		ringPhase[i] = Msg{Src: i, Dst: (i + 1) % p}
	}
	phases = append(phases, ringPhase)
	return schedule("testsuite", p, phases)
}

// Mixed draws a pattern per job: all-to-all, n-body, random or ring with
// equal probability. The paper's experiments give every job the same
// pattern to maximize the pattern/allocator interaction and notes that
// this is "not realistic"; Mixed is the realistic-workload extension its
// Discussion section suggests evaluating.
type Mixed struct{}

// Name implements Pattern.
func (Mixed) Name() string { return "mixed" }

// Generator implements Pattern.
func (Mixed) Generator(p int, rng *stats.RNG) Generator {
	checkSize(p)
	pool := []Pattern{AllToAll{}, NBody{}, Random{}, Ring{}}
	g := pool[rng.Intn(len(pool))].Generator(p, rng)
	g.rng = rng
	return g
}

// AppendState implements snap.Codec: the name of the pattern that
// built g, then a schedule's cursor or a random generator's message
// count, then the holding flag and, while g holds a message, its two
// ranks. Neither the schedule nor the job size is written: ReadState
// rebuilds the one from the name and is given the other.
func (g *Generator) AppendState(w *snap.Writer) {
	w.String(g.name)
	if g.phases == nil {
		w.Int(g.count)
	} else {
		w.Int(g.phase)
		w.Int(g.idx)
	}
	w.Bool(g.holding)
	if g.holding {
		w.Int(g.held.Src)
		w.Int(g.held.Dst)
	}
}

// ReadState implements snap.Codec for g, a generator the run's pattern
// built for a job of the size the state was written for. A state that
// names g's pattern keeps g's schedule, which a Cached pattern shares.
// One that names another pattern can only be a Mixed job's, since
// Mixed drew g's pattern afresh, and g is rebuilt from the pattern
// registry; only a generator that keeps rng, a Mixed job's or the
// random pattern's, can be. It rejects a name that builds no such
// generator for the job, a cursor outside the schedule, a negative
// message count, and a held message with a rank outside the job or, on
// a schedule, one that is not the message at the cursor, so a corrupt
// state cannot make a generator that panics or sends what its pattern
// never would. On error g is left as it was.
func (g *Generator) ReadState(r *snap.Reader) error {
	name := r.String()
	if r.Err() != nil {
		return r.Err()
	}
	b := *g
	if name != g.name {
		if g.rng == nil {
			return fmt.Errorf("comm: a %q generator cannot take a %q generator's state", g.name, name)
		}
		var err error
		if b, err = rebuild(name, g.p, g.rng); err != nil {
			return err
		}
	}
	if b.phases == nil {
		b.count = r.Int()
	} else {
		b.phase, b.idx = r.Int(), r.Int()
	}
	b.holding = r.Bool()
	if b.holding {
		b.held = Msg{Src: r.Int(), Dst: r.Int()}
	}
	switch {
	case r.Err() != nil:
		return r.Err()
	case b.phases == nil && b.count < 0:
		return fmt.Errorf("comm: random generator count %d", b.count)
	case b.phases != nil && (b.phase < 0 || b.phase >= len(b.phases)):
		return fmt.Errorf("comm: phase cursor %d outside the %d-phase %q schedule", b.phase, len(b.phases), name)
	case b.phases != nil && (b.idx < 0 || b.idx >= len(b.phases[b.phase])):
		return fmt.Errorf("comm: message cursor %d outside phase %d of %q", b.idx, b.phase, name)
	case !b.holding:
	case b.held.Src < 0 || b.held.Src >= b.p || b.held.Dst < 0 || b.held.Dst >= b.p:
		return fmt.Errorf("comm: held message %v outside a %d-rank job", b.held, b.p)
	case b.phases != nil && b.held != b.phases[b.phase][b.idx]:
		return fmt.Errorf("comm: held message %v is not %v, the %q schedule's phase %d message %d",
			b.held, b.phases[b.phase][b.idx], name, b.phase, b.idx)
	}
	*g = b
	return nil
}

// rebuild returns the generator the pattern registered under name
// builds for a p-rank job, drawing from rng. The name must build a
// generator of that name: not "single" for more than one rank, nor any
// other for one, and not "mixed", which draws to pick a pattern and so
// names no generator.
func rebuild(name string, p int, rng *stats.RNG) (Generator, error) {
	if name == "mixed" {
		return Generator{}, fmt.Errorf("comm: no generator is named %q", name)
	}
	b := singleRank()
	if name != "single" {
		pat, err := ByName(name)
		if err != nil {
			return Generator{}, err
		}
		b = pat.Generator(p, rng)
	}
	if b.name != name || b.p != p {
		return Generator{}, fmt.Errorf("comm: pattern %q builds no %q generator for a %d-rank job", name, name, p)
	}
	return b, nil
}

// RoundLen returns the number of messages in one full round of pattern
// pat for a job of p processors, used to size message quotas in tests and
// examples. Random reports its phase length p.
func RoundLen(pat Pattern, p int) int {
	if p == 1 {
		return 1
	}
	switch pat.(type) {
	case Random, Mixed:
		return p
	case AllToAll:
		return p * (p - 1)
	case NBody:
		return p*(p/2) + p
	case Ring:
		return p
	case PingPong:
		return p * (p - 1)
	case TestSuite:
		return 2*p*(p-1) + p
	}
	panic(fmt.Sprintf("comm: RoundLen of unknown pattern %T", pat))
}

func checkSize(p int) {
	if p <= 0 {
		panic(fmt.Sprintf("comm: invalid job size %d", p))
	}
}
