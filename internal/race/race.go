//go:build race

// Package race reports whether the program was built with the race
// detector. The allocation-ceiling tests skip under it: the race runtime
// allocates on its own, so the counts they read are not the program's.
package race

// Enabled is true in a -race build.
const Enabled = true
