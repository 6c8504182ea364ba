package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeatRuns runs each named workload n times, each run a child process of
// this binary with its own seed, and prints per metric the median, the
// quartiles and the interquartile spread as a share of the median: the
// figures the benchmark's bounds are set against.
func repeatRuns(name string, seed int64, seconds float64, trace, n int, stdout, stderr io.Writer) int {
	var names []string
	if name == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := workloadByName(name); ok {
		names = []string{name}
	} else {
		fmt.Fprintf(stderr, "abstractbench: unknown workload %q\n", name)
		return exitUsage
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "abstractbench: %v\n", err)
		return exitError
	}
	code := exitOK
	for _, wn := range names {
		values := make(map[string][]float64)
		units := make(map[string]string)
		var attempted, failed, runs int
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			cmd := exec.Command(exe, "--workload", wn, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "abstractbench: %s seed %d: %v\n", wn, s, err)
				code = exitError
				continue
			}
			var rep report
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			// Pass the run's diagnostic lines (tails, slices) on.
			stderr.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
			fmt.Fprintln(stderr)
			if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
				fmt.Fprintf(stderr, "abstractbench: %s seed %d: result line: %v\n", wn, s, err)
				code = exitError
				continue
			}
			if !rep.Correct {
				code = exitError
			}
			runs++
			attempted += rep.Attempted
			failed += rep.Failed
			for k, m := range rep.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
		}
		fmt.Fprintf(stdout, "\n%s: %d runs of %gs, seeds %d..%d, trace=%d, attempted %d, failed %d\n",
			wn, runs, seconds, seed, seed+int64(n)-1, trace, attempted, failed)
		fmt.Fprintf(stdout, "| metric | unit | median | q1 | q3 | (q3-q1)/median | runs |\n|---|---|---|---|---|---|---|\n")
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			v := values[k]
			med := median(v)
			q1, q3 := quartiles(v)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			runs := make([]string, len(v))
			for i, x := range v {
				runs[i] = strconv.FormatFloat(x, 'g', 4, 64)
			}
			fmt.Fprintf(stdout, "| %s | %s | %.4g | %.4g | %.4g | %.3f | %s |\n", k, units[k], med, q1, q3, spread, strings.Join(runs, " "))
		}
	}
	return code
}
