//go:build unix && !race

package repro

func init() { storesOffHeap = true }
