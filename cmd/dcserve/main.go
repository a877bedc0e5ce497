// Command dcserve runs the checker as an always-on HTTP service: POST a
// recorded .dct trace to /check (the response is byte-identical to `dcheck
// -replay` on the same file) or check a named built-in workload via
// /check/workload. The service sheds load with 429 when its admission queue
// fills, quarantines repeatedly-crashing inputs behind a circuit breaker,
// caches results by content address, and drains gracefully on SIGTERM
// (readyz flips to 503, in-flight checks finish within -drain-timeout).
package main

import (
	"context"
	"os"
	"os/signal"
	"syscall"

	"doublechecker/internal/cli"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := cli.DCServe(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}
