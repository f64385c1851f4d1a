package main

import (
	"fmt"
	"syscall"
)

// fsType names the filesystem holding dir. fsync on tmpfs and on a disk
// differ by orders of magnitude, so the durable workloads record it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown: " + err.Error()
	}
	names := map[int64]string{
		0x01021994: "tmpfs",
		0xef53:     "ext4",
		0x58465342: "xfs",
		0x9123683e: "btrfs",
		0x794c7630: "overlayfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
