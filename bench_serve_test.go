package hnp_test

import (
	"testing"

	"hnp/internal/serve"
)

// BenchmarkServerBuild measures serve.NewServer at the default shape: one
// 128-node network, path snapshot and 24-stream catalog, four hierarchies
// over them. (It sits outside bench_test.go because package serve imports
// package hnp.)
func BenchmarkServerBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := serve.NewServer(serve.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
