package mem

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBitsetBasics(t *testing.T) {
	b := &Bitset{}
	if count(b) != 0 {
		t.Fatal("new bitset not empty")
	}
	b.Add(3)
	b.Add(70) // beyond initial capacity: must grow
	b.Add(3)  // duplicate
	if !b.Has(3) || !b.Has(70) || b.Has(4) {
		t.Fatalf("membership wrong: %v", b)
	}
	if count(b) != 2 {
		t.Fatalf("count = %d, want 2", count(b))
	}
	b.Remove(3)
	b.Remove(100) // absent, out of range: no-op
	if b.Has(3) || count(b) != 1 {
		t.Fatalf("after remove: %v", b)
	}
	if got := b.Except(-1, -1); !reflect.DeepEqual(got, []int{70}) {
		t.Fatalf("elements = %v", got)
	}
	b.Clear()
	if count(b) != 0 {
		t.Fatal("Clear left elements")
	}
}

func TestBitsetZeroValue(t *testing.T) {
	var b Bitset
	if b.Has(5) || count(&b) != 0 {
		t.Fatal("zero value not empty")
	}
	b.Add(5)
	if !b.Has(5) {
		t.Fatal("Add on zero value failed")
	}
}

func TestBitsetNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	var b Bitset
	b.Add(-1)
}

func TestBitsetForEachOrder(t *testing.T) {
	b := &Bitset{}
	want := []int{0, 1, 63, 64, 65, 200}
	for _, v := range want {
		b.Add(v)
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ForEach order = %v, want %v", got, want)
	}
}

func TestBitsetString(t *testing.T) {
	b := &Bitset{}
	b.Add(1)
	b.Add(5)
	if got := b.String(); got != "{1 5}" {
		t.Fatalf("String = %q", got)
	}
}

// TestBitsetMatchesMapQuick compares the bitset against a reference
// map under a random operation sequence.
func TestBitsetMatchesMapQuick(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := &Bitset{}
		ref := map[int]bool{}
		for i := 0; i < int(ops); i++ {
			v := rng.Intn(130)
			switch rng.Intn(3) {
			case 0:
				b.Add(v)
				ref[v] = true
			case 1:
				b.Remove(v)
				delete(ref, v)
			case 2:
				if b.Has(v) != ref[v] {
					return false
				}
			}
		}
		if count(b) != len(ref) {
			return false
		}
		for _, v := range b.Except(-1, -1) {
			if !ref[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// count is the set's size, read through its element list.
func count(b *Bitset) int { return len(b.Except(-1, -1)) }
