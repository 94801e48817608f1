package serve

import (
	"strings"
	"testing"
)

func TestParseRoutes(t *testing.T) {
	got, err := ParseRoutes("/a, /b:8192 ,/memhog:hog:1024,/once:hog:512:norestart")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	if got[0].Route != "/a" || got[0].Hog || got[0].MemKB != 0 {
		t.Errorf("plain route parsed as %+v", got[0])
	}
	if got[1].Route != "/b" || got[1].MemKB != 8192 {
		t.Errorf("mem attr parsed as %+v", got[1])
	}
	if !got[2].Hog || got[2].MemKB != 1024 {
		t.Errorf("hog attr parsed as %+v", got[2])
	}
	if !got[3].NoRestart || !got[3].Hog || got[3].MemKB != 512 {
		t.Errorf("norestart attr parsed as %+v", got[3])
	}
}

func TestParseRoutesTable(t *testing.T) {
	cases := []struct {
		name string
		spec string
		// want is the expected route list (nil when an error is expected).
		want []string
		// errSub must appear in the error message when want is nil.
		errSub string
	}{
		{name: "single", spec: "/a", want: []string{"/a"}},
		{name: "many", spec: "/a,/b,/c", want: []string{"/a", "/b", "/c"}},
		{name: "whitespace", spec: " /a , /b ", want: []string{"/a", "/b"}},
		{name: "trailing comma", spec: "/a,/b,", want: []string{"/a", "/b"}},
		{name: "explicit servlet", spec: "/a:servlet:512", want: []string{"/a"}},
		{name: "all attrs", spec: "/a:hog:512:norestart", want: []string{"/a"}},
		{name: "zygote attrs", spec: "/a:warm:template:lazy", want: []string{"/a"}},

		{name: "empty", spec: "", errSub: "empty route spec"},
		{name: "only commas", spec: " , ", errSub: "empty route spec"},
		{name: "bad attr", spec: "/a:bogus", errSub: "unknown attribute"},
		{name: "negative mem", spec: "/a:-5", errSub: "unknown attribute"},
		{name: "zero mem", spec: "/a:0", errSub: "unknown attribute"},
		{name: "float mem", spec: "/a:1.5", errSub: "unknown attribute"},
		{name: "no slash", spec: "zone0", errSub: "must start with '/'"},
		{name: "attr only", spec: ":hog", errSub: "must start with '/'"},
		{name: "second route no slash", spec: "/a,b", errSub: "must start with '/'"},
		{name: "bare slash empty name", spec: "/", errSub: "empty tenant name"},
		{name: "reserved serve", spec: "/serve", errSub: "reserved"},
		{name: "reserved healthz", spec: "/a,/healthz", errSub: "reserved"},
		{name: "duplicate", spec: "/a,/b,/a", errSub: "duplicate route"},
		{name: "duplicate with attrs", spec: "/a:hog,/a:512", errSub: "duplicate route"},
		{name: "hog then wide", spec: "/x:hog:wide", errSub: "two programs"},
		{name: "servlet after hog", spec: "/a:hog:servlet", errSub: "two programs"},
		{name: "same program twice", spec: "/a:warm:512:warm", errSub: "two programs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseRoutes(tc.spec)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("ParseRoutes(%q) = %+v, want error containing %q", tc.spec, got, tc.errSub)
				}
				if !strings.Contains(err.Error(), tc.errSub) {
					t.Fatalf("ParseRoutes(%q) error %q, want it to contain %q", tc.spec, err, tc.errSub)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseRoutes(%q): %v", tc.spec, err)
			}
			var routes []string
			for _, cfg := range got {
				routes = append(routes, cfg.Route)
			}
			if len(routes) != len(tc.want) {
				t.Fatalf("ParseRoutes(%q) routes = %v, want %v", tc.spec, routes, tc.want)
			}
			for i := range routes {
				if routes[i] != tc.want[i] {
					t.Fatalf("ParseRoutes(%q) routes = %v, want %v", tc.spec, routes, tc.want)
				}
			}
		})
	}
}

// TestParseRoutesAttrSemantics pins the attribute → config mapping beyond
// route lists: roles, memlimits and restart policy land on the right
// tenant when several are combined in one spec.
func TestParseRoutesAttrSemantics(t *testing.T) {
	got, err := ParseRoutes("/plain,/big:8192,/hog:hog:1024:norestart,/zyg:warm:template:lazy:2048,/ibm:dispatch")
	if err != nil {
		t.Fatal(err)
	}
	want := []TenantConfig{
		{Route: "/plain"},
		{Route: "/big", MemKB: 8192},
		{Route: "/hog", Hog: true, MemKB: 1024, NoRestart: true},
		{Route: "/zyg", Program: Warm, Template: true, Lazy: true, MemKB: 2048},
		{Route: "/ibm", Program: Dispatch},
	}
	for i, w := range want {
		g := got[i]
		if g.Route != w.Route || g.Hog != w.Hog || g.MemKB != w.MemKB || g.NoRestart != w.NoRestart ||
			g.Program != w.Program || g.Template != w.Template || g.Lazy != w.Lazy {
			t.Errorf("entry %d = %+v, want %+v", i, g, w)
		}
	}
}

// TestFillRejectsTwoPrograms: a config built in code gets the same check
// ParseRoutes makes on words — Hog and Program are one choice.
func TestFillRejectsTwoPrograms(t *testing.T) {
	for _, tc := range []TenantConfig{
		{Route: "/x", Hog: true, Program: Wide},
		{Route: "/x", Hog: true, Program: Dispatch},
		{Route: "/x", Program: "bogus"},
	} {
		if err := tc.fill(); err == nil {
			t.Errorf("fill(%+v) accepted it", tc)
		}
	}
	for _, tc := range []TenantConfig{{Route: "/x", Hog: true}, {Route: "/x", Program: Dispatch}} {
		if err := tc.fill(); err != nil {
			t.Errorf("fill(%+v): %v", tc, err)
		}
	}
}
