// Package clock records when the benchmark process began initialising
// the program's packages. Its import path sorts before every
// repro/internal package, so the Go runtime initialises it first among
// them and Start excludes only the standard library's own set-up.
package clock

import "time"

// Start is the wall-clock time this package was initialised.
var Start = time.Now()
