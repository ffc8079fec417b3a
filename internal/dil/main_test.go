package dil

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/faultinject"
)

// TestMain enforces the failpoint-leak contract for this package.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if err := faultinject.CheckDisabled(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}
