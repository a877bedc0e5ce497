package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"doublechecker/internal/vm"
)

// TestZeroRetriesMeansNone: Config.Retries 0 gives a transiently failing
// check exactly one attempt, and a positive count adds that many retries.
func TestZeroRetriesMeansNone(t *testing.T) {
	for _, retries := range []int{0, 2} {
		s := New(Config{Retries: retries, RetryBackoff: time.Millisecond})
		attempts := 0
		_, cf := runSupervised(s, httptest.NewRequest(http.MethodPost, "/check", nil), "trace:retries", "dc-single", 1,
			func(_ context.Context, seed int64) (string, error) {
				attempts++
				return "", fmt.Errorf("seed %d: %w", seed, vm.ErrDeadlock)
			})
		if cf == nil {
			t.Fatalf("Retries %d: an always-deadlocking check succeeded", retries)
		}
		if attempts != retries+1 {
			t.Errorf("Retries %d: %d attempts, want %d", retries, attempts, retries+1)
		}
	}
}
