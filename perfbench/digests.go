package main

import (
	_ "embed"
	"fmt"
	"strings"
)

// digests.txt records, per simulator workload and seed, the pass digest
// of the mix's virtual results: "workload seed digest" per line. A run
// on a recorded seed must reproduce it; on any other seed the run's
// first pass is the reference its later passes must match.
//
//go:embed digests.txt
var digestsTxt string

// digestTable maps "workload/seed" to the recorded pass digest.
var digestTable = parseDigests(digestsTxt)

func parseDigests(txt string) map[string]string {
	t := map[string]string{}
	for _, line := range strings.Split(txt, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && !strings.HasPrefix(f[0], "#") {
			t[f[0]+"/"+f[1]] = f[2]
		}
	}
	return t
}

func recordedDigest(workload string, seed int64) (string, bool) {
	d, ok := digestTable[fmt.Sprintf("%s/%d", workload, seed)]
	return d, ok
}
