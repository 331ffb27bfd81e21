package service

import (
	"runtime"
	"runtime/debug"

	"oraclesize/internal/membership"
)

// buildInfo is read once; the answer cannot change while the process runs.
var buildInfo = readBuildInfo()

func readBuildInfo() membership.BuildInfo {
	b := membership.BuildInfo{GoVersion: runtime.Version(), ModuleVersion: "(devel)"}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	if info.Main.Version != "" {
		b.ModuleVersion = info.Main.Version
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			b.Revision = s.Value
		case "vcs.modified":
			b.Dirty = s.Value == "true"
		}
	}
	return b
}

// Build returns the server binary's build identification, the block
// /healthz reports and an elastic worker joins with.
func Build() membership.BuildInfo { return buildInfo }
