package deadexport

import "testing"

// Test references do not keep an exported symbol alive.
func TestTestOnly(t *testing.T) {
	if TestOnly()+Limit+Reference() != 8 {
		t.Fatal("fixture arithmetic")
	}
}
