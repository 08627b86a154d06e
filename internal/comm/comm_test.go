package comm

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"meshalloc/internal/snap"
	"meshalloc/internal/stats"
)

// pattern returns the pattern ByName builds under name.
func pattern(name string) *Pattern {
	pat, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return pat
}

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
		if p.name != name {
			t.Errorf("pattern %q is named %q", name, p.name)
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
			for _, m := range drain(&g, 3*pat.RoundLen(p)) {
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
	pattern("alltoall").Generator(0, nil)
}

func TestAllToAllCoversAllPairs(t *testing.T) {
	p := 6
	g := pattern("alltoall").Generator(p, nil)
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
	g := pattern("alltoall").Generator(p, nil)
	if lens := phaseLens(&g, 2*p*(p-1)); len(lens) != 2 {
		t.Fatalf("two all-to-all rounds have phases %v, want 2", lens)
	}
}

func TestNBodyStructure(t *testing.T) {
	// For p=15 (the paper's Figure 5): 7 ring subphases of 15 messages,
	// then one chordal subphase of 15 messages.
	p := 15
	pat := pattern("nbody")
	g := pat.Generator(p, nil)
	round := pat.RoundLen(p)
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
	pat := pattern("nbody")
	g := pat.Generator(p, nil)
	if lens := phaseLens(&g, pat.RoundLen(p)); len(lens) != p/2+1 {
		t.Fatalf("n-body round has phases %v, want %d", lens, p/2+1)
	}
}

func TestNBodyEvenOddRing(t *testing.T) {
	// Every rank sends in every ring subphase, covering the whole ring.
	for _, p := range []int{2, 3, 4, 7} {
		g := pattern("nbody").Generator(p, nil)
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
	g := pattern("ring").Generator(p, nil)
	for _, m := range drain(&g, p) {
		if m.Dst != (m.Src+1)%p {
			t.Fatalf("ring message %v", m)
		}
	}
}

func TestPingPongAlternates(t *testing.T) {
	p := 4
	pat := pattern("pingpong")
	g := pat.Generator(p, nil)
	msgs := drain(&g, pat.RoundLen(p))
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
	g := pattern("random").Generator(p, rng)
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
	pat := pattern("random")
	g1 := pat.Generator(6, stats.NewRNG(9))
	g2 := pat.Generator(6, stats.NewRNG(9))
	a, b := drain(&g1, 100), drain(&g2, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed random generators diverge")
		}
	}
}

func TestTestSuiteComposition(t *testing.T) {
	p := 4
	pat := pattern("testsuite")
	g := pat.Generator(p, nil)
	round := pat.RoundLen(p)
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
		round := pat.RoundLen(p)
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

// TestRoundLenClosedForms checks RoundLen, the length of a pattern's
// memoized round, against each pattern's closed form.
func TestRoundLenClosedForms(t *testing.T) {
	forms := map[string]func(p int) int{
		"alltoall":  func(p int) int { return p * (p - 1) },
		"nbody":     func(p int) int { return p*(p/2) + p },
		"ring":      func(p int) int { return p },
		"pingpong":  func(p int) int { return p * (p - 1) },
		"testsuite": func(p int) int { return 2*p*(p-1) + p },
		"random":    func(p int) int { return p },
		"mixed":     func(p int) int { return p },
	}
	for _, name := range All() {
		pat := pattern(name)
		for p := 1; p <= 40; p++ {
			want := forms[name](p)
			if p == 1 {
				want = 1
			}
			if got := pat.RoundLen(p); got != want {
				t.Errorf("%s: RoundLen(%d) = %d, want %d", name, p, got, want)
			}
		}
	}
}

// TestBuildsDrawOnlyForMixed: building a generator draws nothing from
// the RNG, except under the mixed pattern, which draws its job's
// pattern with one Intn(4), even for a one-rank job.
func TestBuildsDrawOnlyForMixed(t *testing.T) {
	for _, name := range All() {
		for _, p := range []int{1, 5} {
			rng, ref := stats.NewRNG(8), stats.NewRNG(8)
			pattern(name).Generator(p, rng)
			if name == "mixed" {
				ref.Intn(4)
			}
			if a, b := rng.Int63(), ref.Int63(); a != b {
				t.Errorf("%s p=%d: the build left the RNG at draw %d, want %d", name, p, a, b)
			}
		}
	}
}

// TestMixedJobsShareSchedules: mixed jobs of one size that draw the
// same deterministic pattern walk one schedule, the pattern's memo.
func TestMixedJobsShareSchedules(t *testing.T) {
	pat, rng := pattern("mixed"), stats.NewRNG(4)
	first := map[string]*Msg{}
	shared := map[string]int{}
	for i := 0; i < 40; i++ {
		g := pat.Generator(6, rng)
		if g.phases == nil {
			continue
		}
		at := &g.phases[0][0]
		if f, ok := first[g.name]; !ok {
			first[g.name] = at
		} else if f != at {
			t.Fatalf("two %s jobs walk different schedules", g.name)
		} else {
			shared[g.name]++
		}
	}
	for _, name := range []string{"alltoall", "nbody", "ring"} {
		if shared[name] == 0 {
			t.Errorf("no two of 40 mixed jobs drew %s: %v", name, shared)
		}
	}
}

// TestOneRankGeneratorNames pins the name a one-rank job's generator
// writes: its pattern's under a deterministic pattern, and "single"
// under the random and mixed patterns.
func TestOneRankGeneratorNames(t *testing.T) {
	rng := stats.NewRNG(5)
	for _, name := range All() {
		want := name
		if name == "random" || name == "mixed" {
			want = "single"
		}
		pat := pattern(name)
		for i := 0; i < 8; i++ {
			g := pat.Generator(1, rng)
			if got := frame(codecState(&g)).String(); got != want {
				t.Fatalf("%s: a one-rank generator writes %q, want %q", name, got, want)
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

// state is the generator's state as AppendState writes it: a
// schedule's cursor, on the pending message if there is one, or the
// random pattern's count and pending message.
func (r *refGen) state() []byte {
	w := snap.NewWriter(nil)
	w.String(r.name)
	if r.phases != nil {
		at := [2]int{r.phase, r.idx}
		if r.havePend {
			at = r.pendAt
		}
		w.Int(at[0])
		w.Int(at[1])
		return payload(w)
	}
	w.Int(r.count)
	w.Bool(r.havePend)
	if r.havePend {
		w.Int(r.pending.Src)
		w.Int(r.pending.Dst)
	}
	return payload(w)
}

// payload finishes w and returns the payload of its container.
func payload(w *snap.Writer) []byte {
	n := w.Len()
	b := w.Finish()
	return b[len(b)-4-n : len(b)-4]
}

// frame returns a reader over a container holding state.
func frame(state []byte) *snap.Reader {
	w := snap.NewWriter(nil)
	copy(w.Extend(len(state)), state)
	r, err := snap.NewReader(bytes.NewReader(w.Finish()))
	if err != nil {
		panic(err)
	}
	return r
}

// codecState returns the bytes c's AppendState writes.
func codecState(c snap.Codec) []byte {
	w := snap.NewWriter(nil)
	c.AppendState(w)
	return payload(w)
}

// readState reads state into c and requires it to be read whole.
func readState(c snap.Codec, state []byte) error {
	r := frame(state)
	if err := c.ReadState(r); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%d bytes of state left unread", r.Remaining())
	}
	return nil
}

// FuzzBurstMatchesNext drives Burst and the per-message oracle with the
// same fuzzer-chosen budgets, on every pattern at a fuzzer-chosen job
// size and seed; the two generators share the pattern's memoized
// schedule. After every burst the messages,
// the next RNG draw, the encoded state and, for the random pattern, the
// held message must agree; a schedule holds none.
// Budget 1, what sequential issue asks for, is common; one point
// mid-stream takes the generator through its codec as a restoring
// engine does — into a generator the pattern builds afresh, the RNG's
// state read back after it — and carries on from the restored one.
func FuzzBurstMatchesNext(f *testing.F) {
	f.Add(uint8(1), uint8(7), int64(1), uint8(3), []byte{0, 0, 9, 200, 1, 1, 40, 7})
	f.Add(uint8(2), uint8(5), int64(2), uint8(2), []byte{255, 4, 4, 0, 3, 17})
	f.Add(uint8(4), uint8(3), int64(3), uint8(200), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(13), uint8(0), int64(4), uint8(1), []byte{100, 0, 100})
	f.Fuzz(func(t *testing.T, which, pRaw uint8, seed int64, cut uint8, budgets []byte) {
		names := All()
		pat := pattern(names[int(which)%len(names)])
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
			st := codecState(&g)
			if !bytes.Equal(st, ref.state()) {
				t.Fatalf("burst %d: state %x, oracle %x", i, st, ref.state())
			}
			held, holding := g.Held()
			if holding != (ref.havePend && ref.phases == nil) || holding && held != ref.pending {
				t.Fatalf("burst %d: held %v %v, oracle %v %v", i, held, holding, ref.pending, ref.havePend)
			}
			if i == int(cut) {
				rng := codecState(rngA)
				g = pat.Generator(p, rngA)
				if err := readState(&g, st); err != nil {
					t.Fatalf("burst %d: reading state %x: %v", i, st, err)
				}
				if err := readState(rngA, rng); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// TestGeneratorStateRoundTrip takes every pattern's generator, at one
// rank and at five, through its codec mid-stream, into a generator the
// same pattern builds: the next 300 messages must be the same.
func TestGeneratorStateRoundTrip(t *testing.T) {
	for _, name := range All() {
		for _, p := range []int{1, 5} {
			t.Run(fmt.Sprintf("%s/%d", name, p), func(t *testing.T) {
				pat, _ := ByName(name)
				rngA, rngB := stats.NewRNG(3), stats.NewRNG(3)
				a := pat.Generator(p, rngA)
				b := pat.Generator(p, rngB)
				var buf []Msg
				for i := 0; i < 7; i++ {
					a.Burst(3, &buf)
					b.Burst(3, &buf)
				}
				// Build the receiver from another RNG, so that a Mixed
				// pattern's draw does not move rngB, and point it at rngB
				// through the state it reads.
				c := pat.Generator(p, stats.NewRNG(99))
				c.rng = rngB
				if err := readState(&c, codecState(&b)); err != nil {
					t.Fatal(err)
				}
				if got, want := drain(&c, 300), drain(&a, 300); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("restored generator sent %v, want %v", got, want)
				}
			})
		}
	}
}

// TestGeneratorReadStateRejectsBadHeld: a random generator's held
// message with a rank outside the job is refused instead of read into a
// generator that panics, whether the state is read into a random
// generator or into a mixed job's schedule, which the state rebuilds as
// a random one. A generator that holds no message writes no ranks, so a
// leftover message is never read.
func TestGeneratorReadStateRejectsBadHeld(t *testing.T) {
	mixedSchedule := func() Generator {
		g, _ := pattern("mixed").build("nbody", 4, stats.NewRNG(1))
		return g
	}
	random := func() Generator { return pattern("random").Generator(4, stats.NewRNG(1)) }
	for _, tc := range []struct {
		name    string
		gen     func() Generator
		held    Msg
		holding bool
		ok      bool
	}{
		{"schedule/held", mixedSchedule, Msg{Src: 0, Dst: 1}, true, true},
		{"schedule/rank-too-big", mixedSchedule, Msg{Src: 0, Dst: 1 << 20}, true, false},
		{"schedule/negative-rank", mixedSchedule, Msg{Src: -1, Dst: 1}, true, false},
		{"schedule/leftover", mixedSchedule, Msg{Src: 1 << 20, Dst: 7}, false, true},
		{"random/held", random, Msg{Src: 3, Dst: 0}, true, true},
		{"random/rank-too-big", random, Msg{Src: 4, Dst: 0}, true, false},
		{"random/leftover", random, Msg{Src: 9, Dst: 9}, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.gen()
			w := snap.NewWriter(nil)
			w.String("random")
			w.Int(5)
			w.Bool(tc.holding)
			if tc.holding {
				w.Int(tc.held.Src)
				w.Int(tc.held.Dst)
			}
			if err := readState(&g, payload(w)); (err == nil) != tc.ok {
				t.Fatalf("reading %v held=%v: %v, want ok=%v", tc.held, tc.holding, err, tc.ok)
			}
		})
	}
}

// TestGeneratorReadStateRejects: a state naming a pattern that cannot
// have built the job's generator, a cursor outside the schedule, a
// negative message count or a truncated state is refused, and the
// generator is left as it was.
func TestGeneratorReadStateRejects(t *testing.T) {
	state := func(name string, words ...int) []byte {
		w := snap.NewWriter(nil)
		w.String(name)
		for _, v := range words {
			w.Int(v)
		}
		if name == "random" {
			w.Bool(false) // the holding flag
		}
		return payload(w)
	}
	for _, tc := range []struct {
		name  string
		pat   string
		p     int
		state []byte
	}{
		{"unknown-pattern", "mixed", 4, state("spiral", 0, 0)},
		{"mixed", "mixed", 4, state("mixed", 0, 0)},
		{"single-for-4-ranks", "mixed", 4, state("single", 0, 0)},
		{"random-for-1-rank", "mixed", 1, state("random", 0)},
		{"random-into-a-schedule", "nbody", 4, state("random", 0)},
		{"nbody-for-1-rank", "mixed", 1, state("nbody", 0, 0)},
		{"phase-past-end", "nbody", 4, state("nbody", 3, 0)},
		{"negative-phase", "nbody", 4, state("nbody", -1, 0)},
		{"index-past-phase", "nbody", 4, state("nbody", 0, 4)},
		{"negative-count", "random", 4, state("random", -1)},
		{"truncated", "nbody", 4, state("nbody", 0)[:20]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := pattern(tc.pat).Generator(tc.p, stats.NewRNG(1))
			before := codecState(&g)
			if err := readState(&g, tc.state); err == nil {
				t.Fatal("state accepted")
			}
			if after := codecState(&g); !bytes.Equal(after, before) {
				t.Fatalf("rejected state changed the generator from %x to %x", before, after)
			}
		})
	}
}
