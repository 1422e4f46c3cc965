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

// Remove shares its name only with package b's call of os.Remove.
func (T) Remove() {}

// Shadowed is called through a local variable that shadows an import.
func (T) Shadowed() {}

// Cfg has fields named like T's methods below.
type Cfg struct {
	Units Inner
	Count int
}

// Inner is the type of Cfg.Units.
type Inner struct {
	Fault float64
}

// Units shares its name only with the field path cfg.Units.Fault.
func (T) Units() {}

// Count shares its name only with the assigned and incremented cfg.Count.
func (T) Count() {}
