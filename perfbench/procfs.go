package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
// It is 100 on every Linux ABI Go supports; reading it at run time
// would need sysconf through cgo.
const clockTicks = 100

// procCPU returns the user and system CPU time the process has
// consumed, summed over all its threads.
func procCPU(pid int) (user, sys time.Duration, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	return parseStatCPU(data)
}

// parseStatCPU extracts utime and stime (fields 14 and 15) from the
// text of /proc/<pid>/stat. The command name (field 2) is parenthesised and
// may itself contain spaces or ')', so fields are counted from the
// last ')'.
func parseStatCPU(data []byte) (user, sys time.Duration, err error) {
	end := bytes.LastIndexByte(data, ')')
	if end < 0 {
		return 0, 0, fmt.Errorf("proc stat: no command field")
	}
	// After ") " the fields start at field 3 (state).
	fields := strings.Fields(string(data[end+1:]))
	const utimeIdx, stimeIdx = 14 - 3, 15 - 3
	if len(fields) <= stimeIdx {
		return 0, 0, fmt.Errorf("proc stat: %d fields after the command, want > %d", len(fields), stimeIdx)
	}
	ut, err := strconv.ParseUint(fields[utimeIdx], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseUint(fields[stimeIdx], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("proc stat stime: %w", err)
	}
	tick := time.Second / clockTicks
	return time.Duration(ut) * tick, time.Duration(st) * tick, nil
}

// procMemKB reads the named field (VmHWM, VmRSS, ...) of
// /proc/<pid>/status, in KiB.
func procMemKB(pid int, key string) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(data, key)
}

// parseStatusKB finds "key:   1234 kB" in the text of
// /proc/<pid>/status.
func parseStatusKB(data []byte, key string) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != key {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status %s: malformed value %q", key, rest)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s field", key)
}
