// Package use is the fixture's bench module; its own exports are exempt.
package use

import (
	"fixture/a"
	"fixture/b"
)

// Uncalled is exempt because it lives under bench/.
func Uncalled() {
	a.Bench()
	b.Call()
	b.Names(&a.Cfg{})
	b.Shadow()
}
