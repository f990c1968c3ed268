//go:build go1.23

// iter.Pull is Go 1.23 standard library, but the module's go directive stays
// at 1.22: the bench module builds against this one and declares go 1.22, so
// raising the directive here breaks its build. The build constraint raises
// the language version of this file alone, which keeps vet's stdversion
// check satisfied. This is the package's only use of iter.

package sim

import "iter"

// start creates the process's coroutine. Nothing runs until the first
// resume, which enters loop and runs p.fn.
func (p *Process) start() {
	p.resume, p.stop = iter.Pull(p.loop)
}
