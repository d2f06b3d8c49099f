package word

import (
	"reflect"
	"testing"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Count() != 0 {
		t.Fatalf("new set not empty: count=%d", b.Count())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 129} {
		b.Set(i)
		if !b.Test(i) {
			t.Errorf("Test(%d) = false after Set", i)
		}
	}
	if b.Count() != 6 {
		t.Errorf("Count = %d, want 6", b.Count())
	}
	if got := b.AppendTo(nil); !reflect.DeepEqual(got, []int{0, 1, 63, 64, 65, 129}) {
		t.Errorf("AppendTo = %v", got)
	}
	b.Clear(64)
	if b.Test(64) {
		t.Error("Test(64) = true after Clear")
	}
	var seen []int
	b.ForEach(func(i int) { seen = append(seen, i) })
	if !reflect.DeepEqual(seen, []int{0, 1, 63, 65, 129}) {
		t.Errorf("ForEach order = %v", seen)
	}
	b.ClearAll()
	if b.Count() != 0 {
		t.Error("not empty after ClearAll")
	}
	if got := b.AppendTo(seen[:0]); len(got) != 0 {
		t.Errorf("AppendTo after ClearAll = %v", got)
	}
}

func TestBitsetSetClearIdempotent(t *testing.T) {
	b := NewBitset(64)
	b.Set(7)
	b.Set(7)
	if b.Count() != 1 {
		t.Errorf("Count = %d after double Set", b.Count())
	}
	b.Clear(7)
	b.Clear(7)
	if b.Count() != 0 {
		t.Error("not empty after double Clear")
	}
}

func TestNewBitsetZero(t *testing.T) {
	if b := NewBitset(0); b != nil {
		t.Errorf("NewBitset(0) = %v, want nil", b)
	}
}
