package cache

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// gdModel is GreedyDual written the obvious way, for the model test: a
// map of entries and a linear scan for the lowest (priority, touch)
// pair on every eviction. Weights are in priority units.
type gdModel struct {
	max, bytes int64
	clock, seq uint64
	items      map[string]*gdItem
}

type gdItem struct {
	size                int64
	weight, prio, touch uint64
}

func (m *gdModel) bump(it *gdItem) {
	m.seq++
	it.prio, it.touch = m.clock+it.weight, m.seq
}

func (m *gdModel) get(key string) {
	if it, ok := m.items[key]; ok {
		m.bump(it)
	}
}

// put returns the keys it evicted, in eviction order.
func (m *gdModel) put(key string, size int64, weight uint64) []string {
	if size > m.max {
		return nil
	}
	m.remove(key)
	var evicted []string
	for m.bytes+size > m.max {
		victim := ""
		for k, it := range m.items {
			if v := m.items[victim]; victim == "" || it.prio < v.prio || it.prio == v.prio && it.touch < v.touch {
				victim = k
			}
		}
		m.clock = m.items[victim].prio
		m.remove(victim)
		evicted = append(evicted, victim)
	}
	it := &gdItem{size: size, weight: weight}
	m.bump(it)
	m.items[key] = it
	m.bytes += size
	return evicted
}

func (m *gdModel) remove(key string) {
	if it, ok := m.items[key]; ok {
		m.bytes -= it.size
		delete(m.items, key)
	}
}

func (m *gdModel) clear() {
	m.items = map[string]*gdItem{}
	m.bytes, m.clock = 0, 0
}

// TestGreedyDualMatchesModel runs seeded random sequences of Put, Get,
// Remove and Clear over keys of random weights against the memory tier
// and against gdModel: after every step both have evicted the same keys
// in the same order and hold the same keys and byte count. The "across
// rebase" runs start the tier's clock just below rebaseAt, so the clock
// is re-based mid-sequence; the model's never is, and eviction must not
// notice the difference.
func TestGreedyDualMatchesModel(t *testing.T) {
	for _, tc := range []struct {
		name  string
		clock uint64
	}{{"from zero", 0}, {"across rebase", rebaseAt - 3*weightOne}} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				checkAgainstModel(t, seed, tc.clock)
			}
		})
	}
}

func checkAgainstModel(t *testing.T, seed int64, clock uint64) {
	const maxBytes = 256
	rng := rand.New(rand.NewSource(seed))
	weights := map[string]uint64{}
	for k := 0; k < 24; k++ {
		w := uint64(weightOne) >> rng.Intn(9)
		if rng.Intn(4) == 0 {
			w = 1 + rng.Uint64()%weightOne
		}
		weights[fmt.Sprintf("k%d", k)] = w
	}
	c := NewMemTiered(maxBytes)
	c.SetWeigher(func(key string) float64 { return math.Ldexp(float64(weights[key]), -32) })
	var evicted []string
	c.mem.onEvict = func(key string, _ *Block) { evicted = append(evicted, key) }
	c.mem.clock = clock
	m := &gdModel{max: maxBytes, items: map[string]*gdItem{}}
	rebased := false
	for step := 0; step < 2000; step++ {
		key := fmt.Sprintf("k%d", rng.Intn(len(weights)))
		var want []string
		evicted = evicted[:0]
		switch op := rng.Intn(20); {
		case op < 9:
			size := 1 + rng.Int63n(64)
			if op == 0 {
				size = maxBytes + 1
			}
			c.Put(key, make([]byte, size))
			want = m.put(key, size, weights[key])
		case op < 17:
			c.Get(key)
			m.get(key)
		case op < 19:
			c.Remove(key)
			m.remove(key)
		case clock == 0:
			c.Clear()
			m.clear()
		}
		rebased = rebased || c.mem.clock < clock
		var resident []string
		for k := range c.mem.items {
			resident = append(resident, k)
		}
		var modelResident []string
		for k := range m.items {
			modelResident = append(modelResident, k)
		}
		slices.Sort(resident)
		slices.Sort(modelResident)
		s := c.Stats()
		if !slices.Equal(evicted, want) || !slices.Equal(resident, modelResident) || s.Bytes != m.bytes {
			t.Fatalf("seed %d step %d: evicted %v, model %v; resident %v, model %v; bytes %d, model %d",
				seed, step, evicted, want, resident, modelResident, s.Bytes, m.bytes)
		}
	}
	if clock != 0 && !rebased {
		t.Fatalf("seed %d: clock never re-based from %d (now %d)", seed, clock, c.mem.clock)
	}
}

// TestHeavyBlockAgesOut: a weight-1 block that is never touched again
// is evicted once enough finest-weight blocks have passed through the
// tier, so it cannot squat. With room for n blocks and a finest weight
// of w, each n-1 inserts raise the clock by w, so the weight-1 block
// goes within (n-1)/w + n inserts; it must also outlast the
// (n-1)(1/w-1) inserts its weight is worth over theirs.
func TestHeavyBlockAgesOut(t *testing.T) {
	const n, inv = 16, 128 // tier of 16 one-byte blocks; finest weight 1/128
	c := NewMemTiered(n)
	c.SetWeigher(func(key string) float64 {
		if key == "coarse" {
			return 1
		}
		return 1.0 / inv
	})
	c.Put("coarse", []byte{0})
	inserts := 0
	for ; inserts <= (n-1)*inv+n; inserts++ {
		if _, ok := c.mem.items["coarse"]; !ok {
			break
		}
		c.Put(fmt.Sprintf("fine%d", inserts), []byte{1})
	}
	if _, ok := c.mem.items["coarse"]; ok {
		t.Fatalf("weight-1 block still resident after %d finest-weight inserts", inserts)
	}
	if low := (n - 1) * (inv - 1); inserts <= low {
		t.Errorf("weight-1 block evicted after %d finest-weight inserts, want more than %d", inserts, low)
	}
}
