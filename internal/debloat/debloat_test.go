package debloat

import "testing"

func TestCatalogShape(t *testing.T) {
	if len(imageNames) != 40 {
		t.Fatalf("%d images, want top-40", len(imageNames))
	}
	statics := 0
	// Image by image: a whole catalog is ~3 GB of blobs.
	for _, name := range imageNames {
		spec := buildImage(name)
		if spec.StaticGo {
			statics++
		}
		if len(spec.AppAccess) == 0 {
			t.Fatalf("%s: empty access set", spec.Name)
		}
		if spec.Manifest.Size() < 5<<20 {
			t.Fatalf("%s: implausibly small image (%d bytes)", spec.Name, spec.Manifest.Size())
		}
	}
	if statics != 3 {
		t.Fatalf("%d static-Go images, paper found 3", statics)
	}
}

func TestCatalogDeterministic(t *testing.T) {
	// Image by image: two whole catalogs are ~6 GB of blobs.
	for _, name := range imageNames {
		a, b := buildImage(name), buildImage(name)
		if a.Manifest.Size() != b.Manifest.Size() {
			t.Fatalf("%s: catalog not deterministic", a.Name)
		}
	}
}

func TestTraceAndStripSingle(t *testing.T) {
	spec := buildImage("nginx")
	r, err := TraceAndStrip(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Reduction < 0.4 || r.Reduction > 0.99 {
		t.Fatalf("nginx reduction %.2f outside plausible band", r.Reduction)
	}
	if r.SizeAfter >= r.SizeBefore {
		t.Fatal("strip made the image bigger")
	}
	if r.TracedPaths != len(spec.AppAccess) {
		t.Fatalf("traced %d paths, app opened %d", r.TracedPaths, len(spec.AppAccess))
	}
}

func TestStaticGoBarelyShrinks(t *testing.T) {
	r, err := TraceAndStrip(buildImage("registry"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Reduction > 0.10 {
		t.Fatalf("static image reduced %.1f%%, paper found <10%%", r.Reduction*100)
	}
}

func TestE7FullCorpusShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus in -short mode")
	}
	rs, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range Rows(rs) {
		t.Logf("%s = %v %s", r.Key, r.Value, r.Unit)
	}
	avg, min, max, under10 := Stats(rs)
	// Paper: average 60%, spread 50-97% for non-static images, 3
	// static images < 10%.
	if avg < 0.45 || avg > 0.75 {
		t.Errorf("average reduction %.0f%%, paper reports 60%%", avg*100)
	}
	if under10 != 3 {
		t.Errorf("%d images under 10%%, paper found 3", under10)
	}
	if max < 0.80 {
		t.Errorf("best reduction only %.0f%%, paper reaches 97%%", max*100)
	}
	if min > 0.10 {
		t.Errorf("worst reduction %.0f%%, static images should be <10%%", min*100)
	}
	// Non-static images all land in the 50-97%% band.
	for _, r := range rs {
		if !r.StaticGo && (r.Reduction < 0.40 || r.Reduction > 0.98) {
			t.Errorf("%s: %.0f%% outside the paper's 50-97%% band", r.Name, r.Reduction*100)
		}
	}
}
