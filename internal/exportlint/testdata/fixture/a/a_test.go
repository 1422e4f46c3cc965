package a_test

import (
	"testing"

	"fixture/a"
)

func TestA(t *testing.T) {
	a.OwnTestOnly()
	a.T{}.DeadMethod()
}
