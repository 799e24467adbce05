package vfs

import "syscall"

// The path system calls whose numbers differ by architecture.
const (
	sysFstatat  = syscall.SYS_NEWFSTATAT
	sysRenameat = syscall.SYS_RENAMEAT
)
