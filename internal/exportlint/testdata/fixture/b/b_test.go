package b

import (
	"testing"

	"fixture/a"
)

func TestB(t *testing.T) {
	Call()
	a.OtherTest()
}
