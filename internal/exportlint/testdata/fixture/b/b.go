// Package b calls into package a.
package b

import "fixture/a"

// Call exercises a's live exports.
func Call() {
	a.Used()
	a.T{}.LiveMethod()
}
