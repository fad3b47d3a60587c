// Command insanevet vets the INSANE tree for violations of the runtime
// conventions the compiler cannot check: zero-copy buffer ownership
// (§5.1), poller lock ordering (§5.3) with a whole-program lock-cycle
// proof, atomic-counter discipline, timebase-routed clock reads,
// errors.Is discipline on wrapped sentinels, channel/WaitGroup misuse
// (syncmisuse), and — via the whole-program hotpathcheck and
// goroutinecheck rules — freedom from allocation, blocking and
// unbounded work on every //insane:hotpath-rooted call chain (each loop
// bounded by a compile-time constant or waived with a verified
// //insane:bounded by=<reason> annotation, no recursion), and a
// verified owner and stop path for every goroutine the runtime spawns
// (annotated with //insane:goroutine owner=<type> stop=<method>). The
// archcheck rule fences imports to the layering declared in
// ARCH.layers (a stale spec aborts the run), paircheck proves
// every //insane:acquire balanced by a release or transfer on all
// control-flow paths, and guardcheck proves every field of an
// //insane:shared struct accessed under its declared synchronization
// regime (//insane:guardedby mu=<lock> | atomic | rcu=<publisher> |
// confined owner=<func> | immutable after=<init>), whole-program, with
// caller-held lock obligations propagated through *Locked functions
// and stale //insane:unguarded waivers reported as findings. See
// README, "Static analysis".
//
// Usage:
//
//	go run ./cmd/insanevet ./...               # whole module (CI entry point)
//	go run ./cmd/insanevet -list               # describe the rules
//	go run ./cmd/insanevet -json ./...         # findings as JSON (CI annotation)
//	go run ./cmd/insanevet -run hotpathcheck ./...
//
// Findings print in go-vet style. Exit codes: 0 clean, 1 findings,
// 2 usage or load error — including packages that failed to parse or
// type-check, which are listed on stderr and treated as a failure so a
// silent skip can never let violations through. Waive one finding with
// an explicit, reasoned directive:
//
//	//lint:ignore insanevet/<rule> <reason>
package main

import (
	"github.com/insane-mw/insane/internal/lint"
	"github.com/insane-mw/insane/internal/lint/multichecker"
)

func main() {
	multichecker.Main(lint.Analyzers()...)
}
