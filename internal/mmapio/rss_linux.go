//go:build linux

package mmapio

import (
	"bytes"
	"os"
)

// ResidentSetBytes returns the process's resident set size from
// /proc/self/statm (second field, in pages), or 0 when unreadable.  It
// backs the /v1/stats rssBytes gauge: together with MappedBytes it shows how
// much of the mapped data is actually paged in.
func ResidentSetBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := bytes.Fields(b)
	if len(fields) < 2 {
		return 0
	}
	pages := int64(0)
	for _, c := range fields[1] {
		if c < '0' || c > '9' {
			return 0
		}
		pages = pages*10 + int64(c-'0')
	}
	return pages * int64(os.Getpagesize())
}
