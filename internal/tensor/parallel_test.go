package tensor

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestParallelRowsCoversEveryRowOnce(t *testing.T) {
	f := func(n uint8) bool {
		m := int(n%200) + 1
		var mu sync.Mutex
		seen := make([]int, m)
		ParallelRows(m, func(lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestParallelRowsZero(t *testing.T) {
	called := false
	ParallelRows(0, func(lo, hi int) {
		if lo != hi {
			called = true
		}
	})
	if called {
		t.Error("zero rows produced a non-empty chunk")
	}
}
