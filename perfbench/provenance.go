package main

import (
	"cmp"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// provenance records what produced a result: the machine, the
// toolchain, the source and the inputs. Set-up and finish add the
// daemon flags and per-workload sample counts.
func provenance(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.duration.Seconds(),
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		// freqd inherits the environment: GOMAXPROCS from it, else nproc.
		"daemon_gomaxprocs": cmp.Or(os.Getenv("GOMAXPROCS"), strconv.Itoa(runtime.NumCPU())),
		"cpu_model":         cpuModel(),
		"go_version":        runtime.Version(),
		"git_commit":        gitCommit(cfg.root),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the checkout's commit, or "none" outside a git work tree.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}
