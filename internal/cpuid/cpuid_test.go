package cpuid

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestProbeMatchesCPUInfo holds the CPUID+XGETBV probe to the kernel's own
// view of the CPU: on linux the avx2 flag in /proc/cpuinfo is set exactly
// when the probe reports AVX2. A broken probe would otherwise send every
// kernel to its portable body without a word, and every test would still
// pass.
func TestProbeMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/cpuinfo")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Fatal(err)
	}
	flags := ""
	for _, line := range strings.Split(string(info), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = value
			break
		}
	}
	if flags == "" {
		t.Fatal("/proc/cpuinfo has no flags line")
	}
	want := false
	for _, f := range strings.Fields(flags) {
		want = want || f == "avx2"
	}
	if got := hasAVX2(); got != want || AVX2 != want {
		t.Fatalf("probe says AVX2 %v (AVX2 %v), /proc/cpuinfo says %v", got, AVX2, want)
	}
}
