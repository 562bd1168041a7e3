package analysis

import "testing"

// BenchmarkEcsVet measures one full suite run — module load, type check,
// and all seven analyzers over every package — which is what every tier-1
// test run and CI lint step pays.
func BenchmarkEcsVet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		findings, err := Vet("../..")
		if err != nil {
			b.Fatal(err)
		}
		if len(findings) != 0 {
			b.Fatalf("module not clean: %d finding(s)", len(findings))
		}
	}
}
