// Package buildinfo derives a build fingerprint from the information the Go
// toolchain embeds in every binary (runtime/debug.ReadBuildInfo): the module
// version and the VCS revision the binary was built from. CLIs print it under
// -version and stamp it into report headers so an artifact can always be
// traced back to the code that produced it. (The harness result cache keys on
// the executable's SHA-256 instead: a fingerprint cannot tell two
// uncommitted edits apart.)
package buildinfo

import (
	"fmt"
	"runtime/debug"
	"strings"
)

// Info is the decoded build identity.
type Info struct {
	Module   string // module path (e.g. "pivot")
	Version  string // module version ("(devel)" for local builds)
	Revision string // VCS revision, short form
	Time     string // VCS commit time (RFC 3339)
	Modified bool   // working tree was dirty at build time
	Go       string // toolchain version
}

// read is swappable for tests.
var read = debug.ReadBuildInfo

// Get decodes the running binary's build information. Every field degrades
// to "unknown"/zero when the binary was built without VCS stamping (e.g.
// `go test` binaries or builds outside a repository).
func Get() Info {
	info := Info{Module: "pivot", Version: "unknown", Revision: "unknown"}
	bi, ok := read()
	if !ok {
		return info
	}
	if bi.Main.Path != "" {
		info.Module = bi.Main.Path
	}
	if bi.Main.Version != "" {
		info.Version = bi.Main.Version
	}
	info.Go = bi.GoVersion
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			info.Revision = s.Value
		case "vcs.time":
			info.Time = s.Value
		case "vcs.modified":
			info.Modified = s.Value == "true"
		}
	}
	return info
}

// Fingerprint renders the one-line build identity used in report headers:
// "module version rev[+dirty] (go)".
func Fingerprint() string {
	return Get().Fingerprint()
}

// Fingerprint renders the info as the one-line form.
func (i Info) Fingerprint() string {
	rev := i.Revision
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if i.Modified {
		rev += "+dirty"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s", i.Module, i.Version, rev)
	if i.Go != "" {
		fmt.Fprintf(&b, " (%s)", i.Go)
	}
	return b.String()
}
