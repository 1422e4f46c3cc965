// Package a declares the exports the fixture scan classifies.
package a

// T carries the fixture's methods.
type T struct{}

// Used is called from package b.
func Used() {}

// Dead is referenced nowhere.
func Dead() {}

// OwnTestOnly is referenced only by a_test.go.
func OwnTestOnly() {}

// OtherTest is referenced only by package b's test.
func OtherTest() {}

// Bench is referenced only by the bench module.
func Bench() {}

// Internal is called by Used's package-mate below.
func Internal() {}

func helper() { Internal() }

// LiveMethod is called from package b.
func (T) LiveMethod() {}

// DeadMethod is called only by a_test.go.
func (T) DeadMethod() {}

// String is called implicitly by fmt.
func (T) String() string { return "" }
