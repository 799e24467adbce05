package vfs

import "syscall"

// The path system calls whose numbers differ by architecture. arm64 has
// no plain renameat: renameat2 with flags 0 is the same call.
const (
	sysFstatat  = syscall.SYS_FSTATAT
	sysRenameat = syscall.SYS_RENAMEAT2
)
