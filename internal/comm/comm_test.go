package comm

import (
	"testing"
	"testing/quick"

	"meshalloc/internal/stats"
)

// drain pulls n messages from a generator, one at a time.
func drain(g *Generator, n int) []Msg {
	msgs := make([]Msg, 0, n)
	var buf []Msg
	for len(msgs) < n {
		msgs = append(msgs, g.Burst(1, &buf)...)
	}
	return msgs
}

// phaseLens pulls n messages from a generator in bursts as long as the
// budget left allows and returns each burst's length: its phases, the
// last one cut at n.
func phaseLens(g *Generator, n int) []int {
	var lens []int
	var buf []Msg
	for sent := 0; sent < n; {
		k := len(g.Burst(n-sent, &buf))
		lens = append(lens, k)
		sent += k
	}
	return lens
}

func TestByNameCoversAll(t *testing.T) {
	for _, name := range All() {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("pattern %q reports name %q", name, p.Name())
		}
	}
	if _, err := ByName("butterfly"); err == nil {
		t.Error("unknown pattern should fail")
	}
}

func TestMessagesStayInRange(t *testing.T) {
	rng := stats.NewRNG(7)
	for _, name := range All() {
		pat, _ := ByName(name)
		for _, p := range []int{1, 2, 3, 5, 8, 15} {
			g := pat.Generator(p, rng)
			for _, m := range drain(&g, 3*RoundLen(pat, p)) {
				if m.Src < 0 || m.Src >= p || m.Dst < 0 || m.Dst >= p {
					t.Fatalf("%s p=%d: message %v out of range", name, p, m)
				}
				if p > 1 && m.Src == m.Dst {
					t.Fatalf("%s p=%d: self message %v", name, p, m)
				}
			}
		}
	}
}

func TestGeneratorPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("p=0 should panic")
		}
	}()
	AllToAll{}.Generator(0, nil)
}

func TestAllToAllCoversAllPairs(t *testing.T) {
	p := 6
	g := AllToAll{}.Generator(p, nil)
	seen := map[Msg]int{}
	for _, m := range drain(&g, p*(p-1)) {
		seen[m]++
	}
	if len(seen) != p*(p-1) {
		t.Fatalf("one round covers %d ordered pairs, want %d", len(seen), p*(p-1))
	}
	for m, c := range seen {
		if c != 1 {
			t.Fatalf("pair %v sent %d times in one round", m, c)
		}
	}
}

func TestAllToAllIsOnePhasePerRound(t *testing.T) {
	p := 4
	g := AllToAll{}.Generator(p, nil)
	if lens := phaseLens(&g, 2*p*(p-1)); len(lens) != 2 {
		t.Fatalf("two all-to-all rounds have phases %v, want 2", lens)
	}
}

func TestNBodyStructure(t *testing.T) {
	// For p=15 (the paper's Figure 5): 7 ring subphases of 15 messages,
	// then one chordal subphase of 15 messages.
	p := 15
	g := NBody{}.Generator(p, nil)
	round := RoundLen(NBody{}, p)
	if round != 15*7+15 {
		t.Fatalf("round length = %d", round)
	}
	msgs := drain(&g, round)
	// Ring subphases: dst = src+1 mod p.
	for i := 0; i < 15*7; i++ {
		if msgs[i].Dst != (msgs[i].Src+1)%p {
			t.Fatalf("ring message %d is %v", i, msgs[i])
		}
	}
	// Chordal subphase: dst = src + 7 mod p.
	for i := 15 * 7; i < round; i++ {
		if msgs[i].Dst != (msgs[i].Src+7)%p {
			t.Fatalf("chordal message %d is %v", i, msgs[i])
		}
	}
}

func TestNBodyPhaseCount(t *testing.T) {
	p := 8
	g := NBody{}.Generator(p, nil)
	if lens := phaseLens(&g, RoundLen(NBody{}, p)); len(lens) != p/2+1 {
		t.Fatalf("n-body round has phases %v, want %d", lens, p/2+1)
	}
}

func TestNBodyEvenOddRing(t *testing.T) {
	// Every rank sends in every ring subphase, covering the whole ring.
	for _, p := range []int{2, 3, 4, 7} {
		g := NBody{}.Generator(p, nil)
		srcs := map[int]bool{}
		for _, m := range drain(&g, p) {
			srcs[m.Src] = true
		}
		if len(srcs) != p {
			t.Fatalf("p=%d: first subphase has %d distinct senders", p, len(srcs))
		}
	}
}

func TestRingPattern(t *testing.T) {
	p := 5
	g := Ring{}.Generator(p, nil)
	for _, m := range drain(&g, p) {
		if m.Dst != (m.Src+1)%p {
			t.Fatalf("ring message %v", m)
		}
	}
}

func TestPingPongAlternates(t *testing.T) {
	p := 4
	g := PingPong{}.Generator(p, nil)
	msgs := drain(&g, RoundLen(PingPong{}, p))
	for i := 0; i < len(msgs)/2; i++ {
		a, b := msgs[2*i], msgs[2*i+1]
		if a.Src != b.Dst || a.Dst != b.Src {
			t.Fatalf("exchange %d: %v then %v", i, a, b)
		}
	}
}

func TestRandomUniformish(t *testing.T) {
	p := 8
	rng := stats.NewRNG(123)
	g := Random{}.Generator(p, rng)
	counts := map[Msg]int{}
	for _, m := range drain(&g, 56*500) {
		counts[m]++
	}
	if len(counts) != p*(p-1) {
		t.Fatalf("random pattern hit %d pairs, want %d", len(counts), p*(p-1))
	}
	for m, c := range counts {
		if c < 300 || c > 700 {
			t.Fatalf("pair %v count %d deviates far from uniform 500", m, c)
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	g1 := Random{}.Generator(6, stats.NewRNG(9))
	g2 := Random{}.Generator(6, stats.NewRNG(9))
	a, b := drain(&g1, 100), drain(&g2, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed random generators diverge")
		}
	}
}

func TestTestSuiteComposition(t *testing.T) {
	p := 4
	g := TestSuite{}.Generator(p, nil)
	round := RoundLen(TestSuite{}, p)
	if round != 2*p*(p-1)+p {
		t.Fatalf("testsuite round length = %d", round)
	}
	msgs := drain(&g, round)
	// First p(p-1) messages: the broadcast.
	bc := map[Msg]bool{}
	for _, m := range msgs[:p*(p-1)] {
		bc[m] = true
	}
	if len(bc) != p*(p-1) {
		t.Fatal("broadcast section incomplete")
	}
	// Last p messages: the ring.
	for _, m := range msgs[round-p:] {
		if m.Dst != (m.Src+1)%p {
			t.Fatalf("ring section message %v", m)
		}
	}
}

func TestSingleProcessorJobsSelfMessage(t *testing.T) {
	rng := stats.NewRNG(3)
	for _, name := range All() {
		pat, _ := ByName(name)
		g := pat.Generator(1, rng)
		m := drain(&g, 1)[0]
		if m.Src != 0 || m.Dst != 0 {
			t.Fatalf("%s p=1: message %v, want self", name, m)
		}
	}
}

func TestRoundsRepeatIdentically(t *testing.T) {
	// Deterministic patterns repeat the same round forever.
	for _, name := range []string{"alltoall", "nbody", "ring", "pingpong", "testsuite"} {
		pat, _ := ByName(name)
		p := 6
		round := RoundLen(pat, p)
		g := pat.Generator(p, nil)
		first := drain(&g, round)
		second := drain(&g, round)
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("%s: round 2 message %d = %v, want %v", name, i, second[i], first[i])
			}
		}
	}
}

func TestPatternProperty(t *testing.T) {
	// Property: for any size and any prefix length, messages are valid
	// ranks and never self (p > 1).
	rng := stats.NewRNG(11)
	f := func(pRaw, nRaw uint8, which uint8) bool {
		names := All()
		pat, _ := ByName(names[int(which)%len(names)])
		p := int(pRaw)%20 + 2
		n := int(nRaw) + 1
		g := pat.Generator(p, rng)
		for _, m := range drain(&g, n) {
			if m.Src < 0 || m.Src >= p || m.Dst < 0 || m.Dst >= p || m.Src == m.Dst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refGen is the per-message generator Burst replaced, kept as its
// oracle: next hands out one message and whether it begins a phase, and
// burst is the simulator's old step loop over it, which held a phase's
// first message back for the next burst in its own pending slot. The
// slot keeps its message once sent, as the job records did.
type refGen struct {
	name       string
	p          int
	phases     [][]Msg
	phase, idx int
	rng        *stats.RNG
	count      int
	pending    Msg
	havePend   bool
	pendAt     [2]int // the pending message's phase and index
}

// newRefGen copies g's schedule or random source from a generator built
// by a pattern, before any message is drawn.
func newRefGen(g *Generator) *refGen {
	return &refGen{name: g.name, p: g.p, phases: g.phases, rng: g.rng}
}

func (r *refGen) next() (Msg, bool) {
	if r.phases != nil {
		ph := r.phases[r.phase]
		m := ph[r.idx]
		newPhase := r.idx == 0
		r.idx++
		if r.idx == len(ph) {
			r.idx = 0
			r.phase = (r.phase + 1) % len(r.phases)
		}
		return m, newPhase
	}
	src := r.rng.Intn(r.p)
	dst := r.rng.Intn(r.p - 1)
	if dst >= src {
		dst++
	}
	newPhase := r.count%r.p == 0
	r.count++
	return Msg{Src: src, Dst: dst}, newPhase
}

func (r *refGen) burst(budget int) []Msg {
	var out []Msg
	for len(out) < budget {
		var msg Msg
		if r.havePend {
			msg, r.havePend = r.pending, false
		} else {
			at := [2]int{r.phase, r.idx}
			var newPhase bool
			msg, newPhase = r.next()
			if newPhase && len(out) > 0 {
				r.pending, r.havePend, r.pendAt = msg, true, at
				break
			}
		}
		out = append(out, msg)
	}
	return out
}

// state is the generator's state, its cursor on the pending message if
// there is one.
func (r *refGen) state() GenState {
	if r.phases != nil {
		at := [2]int{r.phase, r.idx}
		if r.havePend {
			at = r.pendAt
		}
		return GenState{Kind: "phase", Pattern: r.name, P: r.p, Phase: at[0], Idx: at[1]}
	}
	return GenState{Kind: "random", P: r.p, Count: r.count}
}

// FuzzBurstMatchesNext drives Burst and the per-message oracle with the
// same fuzzer-chosen budgets, on every pattern (plain or schedule-cached)
// at a fuzzer-chosen job size and seed. After every burst the messages,
// the next RNG draw, StateOf and the held message must agree. Budget 1,
// what sequential issue asks for, is common; one point mid-stream takes
// the generator through StateOf and RestoreGen and carries on from the
// rebuilt one.
func FuzzBurstMatchesNext(f *testing.F) {
	f.Add(uint8(1), uint8(7), int64(1), uint8(3), []byte{0, 0, 9, 200, 1, 1, 40, 7})
	f.Add(uint8(2), uint8(5), int64(2), uint8(2), []byte{255, 4, 4, 0, 3, 17})
	f.Add(uint8(4), uint8(3), int64(3), uint8(200), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(13), uint8(0), int64(4), uint8(1), []byte{100, 0, 100})
	f.Fuzz(func(t *testing.T, which, pRaw uint8, seed int64, cut uint8, budgets []byte) {
		names := All()
		pat, _ := ByName(names[int(which)%len(names)])
		if which/uint8(len(names))%2 == 1 {
			pat = Cached(pat)
		}
		p := int(pRaw)%24 + 1
		rngA, rngB := stats.NewRNG(seed), stats.NewRNG(seed)
		g := pat.Generator(p, rngA)
		ref := func() *refGen { b := pat.Generator(p, rngB); return newRefGen(&b) }()
		var buf []Msg
		for i, b := range budgets {
			// Mostly small budgets, a one in four chance of 1, and the
			// occasional budget past any phase.
			budget := int(b)%9 + 1
			switch {
			case b%4 == 0:
				budget = 1
			case b >= 250:
				budget = 1 << 20
			}
			got, want := g.Burst(budget, &buf), ref.burst(budget)
			if len(got) != len(want) {
				t.Fatalf("burst %d (budget %d): %v, oracle %v", i, budget, got, want)
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("burst %d (budget %d): %v, oracle %v", i, budget, got, want)
				}
			}
			if a, b := rngA.Int63(), rngB.Int63(); a != b {
				t.Fatalf("burst %d: next RNG draw %d, oracle's %d", i, a, b)
			}
			st, err := StateOf(&g)
			if err != nil {
				t.Fatal(err)
			}
			if st != ref.state() {
				t.Fatalf("burst %d: state %+v, oracle %+v", i, st, ref.state())
			}
			held, holding := g.Held()
			if holding != ref.havePend || holding && held != ref.pending {
				t.Fatalf("burst %d: held %v %v, oracle %v %v", i, held, holding, ref.pending, ref.havePend)
			}
			if i == int(cut) {
				if g, err = RestoreGen(st, held, holding, pat, rngA); err != nil {
					t.Fatalf("burst %d: RestoreGen(%+v, %v, %v): %v", i, st, held, holding, err)
				}
			}
		}
	})
}

// TestRestoreGenRejectsBadHeld: a held message with a rank outside the
// job, or one that is not the message at a schedule's cursor, is
// refused instead of rebuilt into a generator that panics or sends
// messages its pattern never would. A message that is not held is not
// read, so it is not checked.
func TestRestoreGenRejectsBadHeld(t *testing.T) {
	nbody := GenState{Kind: "phase", Pattern: "nbody", P: 4, Phase: 1, Idx: 0}
	random := GenState{Kind: "random", P: 4, Count: 5}
	for _, tc := range []struct {
		name    string
		st      GenState
		held    Msg
		holding bool
		ok      bool
	}{
		{"schedule/held", nbody, Msg{Src: 0, Dst: 1}, true, true},
		{"schedule/not-at-cursor", nbody, Msg{Src: 1, Dst: 2}, true, false},
		{"schedule/before-cursor", nbody, Msg{Src: 3, Dst: 0}, true, false},
		{"schedule/rank-too-big", nbody, Msg{Src: 0, Dst: 1 << 20}, true, false},
		{"schedule/negative-rank", nbody, Msg{Src: -1, Dst: 1}, true, false},
		{"schedule/leftover", nbody, Msg{Src: 1 << 20, Dst: 7}, false, true},
		{"random/held", random, Msg{Src: 3, Dst: 0}, true, true},
		{"random/rank-too-big", random, Msg{Src: 4, Dst: 0}, true, false},
		{"random/leftover", random, Msg{Src: 9, Dst: 9}, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RestoreGen(tc.st, tc.held, tc.holding, nil, stats.NewRNG(1))
			if (err == nil) != tc.ok {
				t.Fatalf("RestoreGen(%+v, %v, %v) = %v, want ok=%v", tc.st, tc.held, tc.holding, err, tc.ok)
			}
		})
	}
}
