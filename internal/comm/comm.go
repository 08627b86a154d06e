// Package comm generates the message streams of the communication
// patterns studied in the paper: all-to-all, n-body (ring subphases plus a
// chordal subphase), and random, plus the ring and all-pairs ping-pong
// patterns from the CPlant communication test suite of Leung et al.
// (Figure 1).
//
// Messages are expressed in job-local ranks 0..p-1; the simulator maps
// ranks to the processors the allocator assigned. Patterns repeat forever;
// the job's message quota decides when to stop drawing from them. Each
// deterministic pattern is one entry in a table of round builders, and a
// run's Pattern memoizes the rounds its jobs walk. Generators hand their
// messages out a burst at a time, one subphase per call, so a job's step
// is one call here and one into the network.
package comm

import (
	"fmt"
	"slices"

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
// pattern draws each message from the engine RNG. A Pattern builds
// generators, and ReadState sets one to a snapshot's state; the zero
// Generator is not usable.
type Generator struct {
	// name is the pattern that built the generator ("single" for a
	// random or mixed one-rank job), so a snapshot can rebuild a
	// schedule from the round table instead of serializing it, and p is
	// the job size. A schedule generator walks phases, one round of
	// phases of messages, never written and possibly shared. phase and
	// idx are the cursor: the next message to hand out. pat is the
	// pattern that built the generator, whose memo a rebuild reads.
	name       string
	p          int
	phases     [][]Msg
	phase, idx int
	pat        *Pattern
	// A random generator (phases == nil) draws from rng and counts the
	// messages drawn. A mixed job's schedule keeps rng too, so that
	// ReadState can make it the random generator a snapshot names.
	rng   *stats.RNG
	count int
	// held is a random generator's first message of the next phase once
	// a burst has found its phase's end with budget left: finding the
	// boundary takes drawing that message, so it is held for the next
	// burst, and holding says it has not been handed out yet. A schedule
	// finds a phase's end by its cursor and holds nothing.
	held    Msg
	holding bool
}

// Burst returns the next burst of at most budget messages, budget >= 1,
// never crossing a phase boundary: a schedule's messages from its
// cursor to at most its phase's end, and a random generator's held
// message if there is one, then the rest of its phase. When a random
// phase ends with budget left, the next phase's first message is drawn
// ahead and held. A burst that starts mid-phase (budget 1 every time,
// or a restored cursor) runs to the phase's end at most.
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
	if end < len(ph) {
		g.idx = end
		return ph[start:end]
	}
	g.phase, g.idx = g.phase+1, 0
	if g.phase == len(g.phases) {
		g.phase = 0
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

// Held returns the message a random generator drew ahead for the next
// burst and whether it is still to be handed out; the message means
// nothing once it is not. A schedule holds none.
func (g *Generator) Held() (Msg, bool) { return g.held, g.holding }

// rounds maps each deterministic pattern's name to the function that
// builds one round of its phases for a job of p >= 2 ranks.
var rounds = map[string]func(p int) [][]Msg{
	"alltoall": allToAll,
	"nbody":    nBody,
	"ring":     ring,
	"pingpong": pingPong,
	// The communication test of Leung et al. behind the paper's
	// Figure 1: an all-to-all broadcast, all-pairs ping-pong and a ring
	// shift, repeated (in the CPlant experiments, one hundred times).
	"testsuite": func(p int) [][]Msg { return slices.Concat(allToAll(p), pingPong(p), ring(p)) },
}

// mixed is the patterns a mixed job draws from, in draw order.
var mixed = []string{"alltoall", "nbody", "random", "ring"}

// selfRound is every pattern's round for a one-rank job, which only
// talks to itself.
var selfRound = [][]Msg{{{Src: 0, Dst: 0}}}

// Pattern builds the generators of one run's jobs. A deterministic
// pattern's generators walk a schedule memoized per pattern and job
// size, so every job of a size, a mixed job included, shares one
// read-only round. The memo is not safe for concurrent use: each run
// builds its own Pattern with ByName.
type Pattern struct {
	name string
	memo map[schedKey][][]Msg
}

type schedKey struct {
	name string
	p    int
}

// ByName returns a new pattern of the given name, one of All's.
func ByName(name string) (*Pattern, error) {
	if !slices.Contains(All(), name) {
		return nil, fmt.Errorf("comm: unknown pattern %q", name)
	}
	return &Pattern{name: name, memo: map[schedKey][][]Msg{}}, nil
}

// All returns every pattern name.
func All() []string {
	return []string{"alltoall", "nbody", "random", "ring", "pingpong", "testsuite", "mixed"}
}

// Generator returns the message stream for a job of p >= 1 ranks. The
// random pattern sends each message between a uniformly random ordered
// pair of distinct ranks drawn from rng, in phases of p messages. The
// mixed pattern first draws the job's pattern from rng: all-to-all,
// n-body, random or ring with equal probability. The paper gives every
// job the same pattern and notes that this is "not realistic"; mixed is
// the realistic workload its Discussion suggests evaluating. The other
// patterns draw nothing, and rng may be nil for them. A one-rank job's
// generator is named after its deterministic pattern, and "single"
// under the random and mixed patterns.
func (pat *Pattern) Generator(p int, rng *stats.RNG) Generator {
	if p <= 0 {
		panic(fmt.Sprintf("comm: invalid job size %d", p))
	}
	name := pat.name
	switch name {
	case "mixed":
		name = mixed[rng.Intn(len(mixed))]
	case "random":
	default:
		return Generator{name: name, p: p, phases: pat.schedule(name, p), pat: pat}
	}
	if p == 1 {
		name = "single"
	}
	// build fails on no name it is given here.
	g, _ := pat.build(name, p, rng)
	return g
}

// build returns the generator named name for a p-rank job that keeps
// rng: the random pattern's, drawing from rng, a schedule of the
// table's, or "single", the self-message round of a one-rank job. No
// other name builds one: not "mixed", which names no generator, nor a
// table pattern for one rank, nor "single" for more.
func (pat *Pattern) build(name string, p int, rng *stats.RNG) (Generator, error) {
	g := Generator{name: name, p: p, pat: pat, rng: rng}
	switch {
	case p == 1 && name == "single", p > 1 && rounds[name] != nil:
		g.phases = pat.schedule(name, p)
	case p > 1 && name == "random":
	default:
		return Generator{}, fmt.Errorf("comm: pattern %q builds no generator for a %d-rank job", name, p)
	}
	return g, nil
}

// schedule returns the round of the table's pattern name for p ranks,
// built once per pattern and size.
func (pat *Pattern) schedule(name string, p int) [][]Msg {
	if p == 1 {
		return selfRound
	}
	k := schedKey{name, p}
	s, ok := pat.memo[k]
	if !ok {
		s = rounds[name](p)
		pat.memo[k] = s
	}
	return s
}

// RoundLen returns the number of messages in one round of the pattern
// for a p-rank job, used to size message quotas: the length of a
// deterministic pattern's schedule, and p, one phase, for the random
// and mixed patterns.
func (pat *Pattern) RoundLen(p int) int {
	if pat.name == "random" || pat.name == "mixed" {
		return p
	}
	n := 0
	for _, ph := range pat.schedule(pat.name, p) {
		n += len(ph)
	}
	return n
}

// allToAll is one round of all-to-all: each rank sends one message to
// every other rank, in a single phase of p(p-1) logically concurrent
// messages.
func allToAll(p int) [][]Msg {
	msgs := make([]Msg, 0, p*(p-1))
	for i := range p {
		for j := range p {
			if i != j {
				msgs = append(msgs, Msg{Src: i, Dst: j})
			}
		}
	}
	return [][]Msg{msgs}
}

// nBody is one round of the paper's n-body force computation. The
// ranks form a virtual ring: floor(p/2) ring subphases in which every
// rank sends to its successor, then one chordal subphase in which every
// rank sends halfway across the ring to return accumulated forces to
// the owning rank.
func nBody(p int) [][]Msg {
	phases := make([][]Msg, p/2, p/2+1)
	shift := ring(p)[0]
	for s := range phases {
		phases[s] = shift
	}
	chordal := make([]Msg, p)
	for i := range chordal {
		chordal[i] = Msg{Src: i, Dst: (i + p/2) % p}
	}
	return append(phases, chordal)
}

// ring is one round of the CPlant test suite's ring shift: each rank
// sends to its successor, in one phase.
func ring(p int) [][]Msg {
	msgs := make([]Msg, p)
	for i := range msgs {
		msgs[i] = Msg{Src: i, Dst: (i + 1) % p}
	}
	return [][]Msg{msgs}
}

// pingPong is one round of the CPlant test suite's all-pairs ping-pong:
// for every unordered pair, a message in each direction, each exchange
// its own phase.
func pingPong(p int) [][]Msg {
	var phases [][]Msg
	for i := range p {
		for j := i + 1; j < p; j++ {
			phases = append(phases, []Msg{{Src: i, Dst: j}, {Src: j, Dst: i}})
		}
	}
	return phases
}

// AppendState implements snap.Codec: the name of the pattern that
// built g, then a schedule's cursor, or a random generator's message
// count, holding flag and, while it holds a message, the message's two
// ranks. Neither the schedule nor the job size is written: ReadState
// rebuilds the one from the name and is given the other.
func (g *Generator) AppendState(w *snap.Writer) {
	w.String(g.name)
	if g.phases != nil {
		w.Int(g.phase)
		w.Int(g.idx)
		return
	}
	w.Int(g.count)
	w.Bool(g.holding)
	if g.holding {
		w.Int(g.held.Src)
		w.Int(g.held.Dst)
	}
}

// ReadState implements snap.Codec for g, a generator the run's pattern
// built for a job of the size the state was written for. A state that
// names g's pattern keeps g's schedule. One that names another pattern
// can only be a mixed job's, since the mixed pattern drew g's pattern
// afresh, and g is rebuilt from the round table through its pattern's
// memo; only a generator that keeps rng, a mixed job's or the random
// pattern's, can be. It rejects a name that builds no such
// generator for the job, a cursor outside the schedule, a negative
// message count, and a held message with a rank outside the job, so a
// corrupt state cannot make a generator that panics. On error g is left
// as it was.
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
		if b, err = g.pat.build(name, g.p, g.rng); err != nil {
			return err
		}
	}
	if b.phases != nil {
		b.phase, b.idx = r.Int(), r.Int()
	} else {
		b.count = r.Int()
		if b.holding = r.Bool(); b.holding {
			b.held = Msg{Src: r.Int(), Dst: r.Int()}
		}
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
	case b.holding && (b.held.Src < 0 || b.held.Src >= b.p || b.held.Dst < 0 || b.held.Dst >= b.p):
		return fmt.Errorf("comm: held message %v outside a %d-rank job", b.held, b.p)
	}
	*g = b
	return nil
}
