package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNewMapRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, DefaultShards}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {64, 64}, {65, 128},
	}
	for _, c := range cases {
		m, err := NewMap[int](c.in)
		if err != nil {
			t.Fatalf("NewMap(%d): %v", c.in, err)
		}
		if m.Shards() != c.want {
			t.Errorf("NewMap(%d).Shards() = %d, want %d", c.in, m.Shards(), c.want)
		}
	}
	if _, err := NewMap[int](-1); err == nil {
		t.Error("NewMap(-1) should fail")
	}
	if _, err := NewMap[int](MaxShards + 1); err == nil {
		t.Error("NewMap(MaxShards+1) should fail")
	}
}

func TestGetOrCreateExactlyOnce(t *testing.T) {
	m, _ := NewMap[int](8)
	var creations atomic.Int64
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				name := fmt.Sprintf("obj-%d", i)
				v, _, err := m.GetOrCreate(name, func() (int, error) {
					creations.Add(1)
					return i * 10, nil
				})
				if err != nil {
					t.Errorf("GetOrCreate(%s): %v", name, err)
					return
				}
				if v != i*10 {
					t.Errorf("GetOrCreate(%s) = %d, want %d", name, v, i*10)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := creations.Load(); got != 100 {
		t.Errorf("create ran %d times, want 100", got)
	}
	if m.Len() != 100 {
		t.Errorf("Len() = %d, want 100", m.Len())
	}
}

func TestGetOrCreateError(t *testing.T) {
	m, _ := NewMap[int](1)
	wantErr := fmt.Errorf("boom")
	_, _, err := m.GetOrCreate("x", func() (int, error) { return 0, wantErr })
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if _, ok := m.Get("x"); ok {
		t.Error("failed creation must not store an entry")
	}
	// A later create may succeed.
	v, created, err := m.GetOrCreate("x", func() (int, error) { return 7, nil })
	if err != nil || !created || v != 7 {
		t.Fatalf("retry = (%d, %v, %v), want (7, true, nil)", v, created, err)
	}
}

func TestRangeVisitsEverything(t *testing.T) {
	m, _ := NewMap[string](4)
	want := map[string]string{}
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("n%02d", i)
		want[name] = name + "!"
		m.GetOrCreate(name, func() (string, error) { return name + "!", nil })
	}
	got := map[string]string{}
	m.Range(func(name, v string) bool {
		got[name] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("Range saw %s=%q, want %q", k, got[k], v)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	m, _ := NewMap[int](2)
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("k%d", i)
		m.GetOrCreate(name, func() (int, error) { return i, nil })
	}
	seen := 0
	m.Range(func(string, int) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Errorf("early-stopped Range visited %d entries, want 3", seen)
	}
}

func TestRangeShardPartition(t *testing.T) {
	m, _ := NewMap[int](8)
	const n = 200
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("object-%03d", i)
		m.GetOrCreate(name, func() (int, error) { return i, nil })
	}
	// Every name lands in exactly one shard's sweep, and that shard is
	// ShardOf(name).
	total := 0
	for s := 0; s < m.Shards(); s++ {
		m.RangeShard(s, func(name string, _ int) bool {
			total++
			if got := m.ShardOf(name); got != s {
				t.Errorf("name %s swept in shard %d, ShardOf says %d", name, s, got)
			}
			return true
		})
	}
	if total != n {
		t.Errorf("per-shard sweeps visited %d entries, want %d", total, n)
	}
}

// TestGetDuringGrowth fills one shard from several creators while readers
// loop on Get, so lookups run against tables being filled and doubled.
func TestGetDuringGrowth(t *testing.T) {
	const names, creators, readers = 4096, 2, 2
	m, _ := NewMap[int](1)
	name := make([]string, names)
	for i := range name {
		name[i] = fmt.Sprintf("g%d", i)
	}
	// Creator c creates names c, c+creators, ... in order and publishes how
	// many of its own have returned.
	var progress [creators]atomic.Int64
	var done atomic.Bool
	var ready, readWG, createWG sync.WaitGroup
	ready.Add(readers)
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			ready.Done()
			for k := 0; !done.Load(); k++ {
				c := k % creators
				p := progress[c].Load() // names below p were created before this Get starts
				j := int64(k/creators) % min(p+1, names/creators)
				i := c + creators*int(j)
				v, ok := m.Get(name[i])
				if ok && v != i {
					t.Errorf("Get(%s) = %d, want %d", name[i], v, i)
					return
				}
				if !ok && j < p {
					t.Errorf("Get(%s) missed a name whose GetOrCreate had returned", name[i])
					return
				}
			}
		}()
	}
	ready.Wait()
	for c := 0; c < creators; c++ {
		createWG.Add(1)
		go func() {
			defer createWG.Done()
			for i := c; i < names; i += creators {
				if _, _, err := m.GetOrCreate(name[i], func() (int, error) { return i, nil }); err != nil {
					t.Errorf("GetOrCreate(%s): %v", name[i], err)
					return
				}
				progress[c].Add(1)
			}
		}()
	}
	createWG.Wait()
	done.Store(true)
	readWG.Wait()
	if got := m.Len(); got != names {
		t.Errorf("Len() = %d, want %d", got, names)
	}
	for i := range name {
		if v, ok := m.Get(name[i]); !ok || v != i {
			t.Fatalf("after growth Get(%s) = (%d, %v), want (%d, true)", name[i], v, ok, i)
		}
	}
}

func TestGetAllocationFree(t *testing.T) {
	m, _ := NewMap[*int](DefaultShards)
	for i := 0; i < 1024; i++ {
		m.GetOrCreate(fmt.Sprintf("object-%d", i), func() (*int, error) { return &i, nil })
	}
	for _, name := range []string{"object-17", "absent"} {
		if n := testing.AllocsPerRun(1000, func() { m.Get(name) }); n != 0 {
			t.Errorf("Get(%q) allocates %.1f times, want 0", name, n)
		}
	}
}

// BenchmarkGet looks up existing names round-robin: the name lookup every
// store operation starts with.
func BenchmarkGet(b *testing.B) {
	for _, n := range []int{1024, 65536} {
		b.Run(fmt.Sprintf("names=%d", n), func(b *testing.B) {
			m, _ := NewMap[*int](DefaultShards)
			names := make([]string, n)
			for i := range names {
				names[i] = fmt.Sprintf("object-%d", i)
				m.GetOrCreate(names[i], func() (*int, error) { return &i, nil })
			}
			i := 0
			for b.Loop() {
				if _, ok := m.Get(names[i]); !ok {
					b.Fatal("miss")
				}
				if i++; i == n {
					i = 0
				}
			}
		})
	}
}

func TestRangeCallbackMayReenter(t *testing.T) {
	m, _ := NewMap[int](2)
	m.GetOrCreate("a", func() (int, error) { return 1, nil })
	m.GetOrCreate("b", func() (int, error) { return 2, nil })
	// f holds no shard lock, so calling back into the map must not deadlock.
	m.Range(func(name string, v int) bool {
		if got, ok := m.Get(name); !ok || got != v {
			t.Errorf("reentrant Get(%s) = (%d, %v), want (%d, true)", name, got, ok, v)
		}
		return true
	})
}
