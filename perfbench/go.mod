// The repository benchmark is a module of its own (BENCHMARK.md explains
// why); it reaches the middleware through the replace directive below, so
// it builds only inside a checkout of the parent module.
module github.com/insane-mw/insane/perfbench

go 1.22

require github.com/insane-mw/insane v0.0.0

replace github.com/insane-mw/insane => ../
