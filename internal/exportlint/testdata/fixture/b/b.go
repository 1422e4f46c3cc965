// Package b calls into package a.
package b

import (
	"os"
	"strings"

	"fixture/a"
)

// Call exercises a's live exports.
func Call() {
	a.Used()
	a.T{}.LiveMethod()
}

// Names uses methods' names for other things: a standard-library function,
// and fields that are selected from, assigned and incremented.
func Names(cfg *a.Cfg) {
	_ = os.Remove(strings.TrimSpace(" f "))
	cfg.Units.Fault = 1
	cfg.Count = 2
	cfg.Count++
}

// Shadow calls a method through a variable named like an import.
func Shadow() {
	strings := a.T{}
	strings.Shadowed()
}
