package main

import (
	"fmt"
	"runtime"
	"syscall"
)

// runContext stamps a result with what it was measured on.
type runContext struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	WALFS      string `json:"wal_fs"`
	WALNote    string `json:"wal_note"`
}

func newRunContext(w workload, seed uint64, commit, dataDir string) runContext {
	fs := fsType(dataDir)
	return runContext{
		Workload:   w.name,
		Seed:       seed,
		Commit:     commit,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		WALFS:      fs,
		WALNote: fmt.Sprintf("WAL fsync times are those of this machine's %s filesystem under the benchmark's data "+
			"directory, not of a storage device", fs),
	}
}

// fsMagic names the statfs type numbers of common Linux filesystems.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
	0x01021997: "v9fs",
}

// fsType returns the filesystem type of the directory holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
