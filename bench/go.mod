module github.com/coyote-sim/coyote/bench

go 1.22

require github.com/coyote-sim/coyote v0.0.0

replace github.com/coyote-sim/coyote => ../
