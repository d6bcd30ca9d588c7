// The benchmark is a module of its own so that it builds from its own
// build file and never rides along in the product's `go build ./...` /
// `go test ./...`. The module path sits under hnp/ so it may import
// hnp/internal/...; the replace points at the checkout it lives in.
module hnp/bench

go 1.22

require hnp v0.0.0

replace hnp => ../
