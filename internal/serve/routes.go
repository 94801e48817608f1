package serve

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseRoutes turns a command-line route spec into tenant configs. The
// grammar is comma-separated entries of the form
//
//	path[:attr[:attr...]]
//
// where each attr is "hog", "servlet", "warm" or "wide" (role),
// "norestart", "template" (fork incarnations from a checkpointed zygote),
// "lazy" (scale-from-zero: start on first request), or an integer
// memlimit in KiB. Examples:
//
//	/zone0,/zone1,/zone2
//	/a,/b:8192,/memhog:hog:1024
//	/once:hog:512:norestart
//	/fast:warm:template:lazy
//	/big:wide:8192
func ParseRoutes(spec string) ([]TenantConfig, error) {
	var out []TenantConfig
	seen := make(map[string]bool)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		switch {
		case parts[0] == "" || parts[0][0] != '/':
			return nil, fmt.Errorf("serve: route %q must start with '/'", parts[0])
		case parts[0] == "/":
			return nil, fmt.Errorf("serve: route %q yields an empty tenant name", parts[0])
		case parts[0] == "/serve" || parts[0] == "/healthz":
			return nil, fmt.Errorf("serve: route %q is reserved", parts[0])
		case seen[parts[0]]:
			return nil, fmt.Errorf("serve: duplicate route %q", parts[0])
		}
		seen[parts[0]] = true
		tc := TenantConfig{Route: parts[0]}
		for _, attr := range parts[1:] {
			switch attr {
			case "hog":
				tc.Hog = true
			case "servlet":
				tc.Hog = false
			case "warm":
				tc.Warm = true
			case "wide":
				tc.Wide = true
			case "template":
				tc.Template = true
			case "lazy":
				tc.Lazy = true
			case "norestart":
				tc.NoRestart = true
			default:
				kb, err := strconv.Atoi(attr)
				if err != nil || kb <= 0 {
					return nil, fmt.Errorf("serve: route %q: unknown attribute %q", parts[0], attr)
				}
				tc.MemKB = kb
			}
		}
		out = append(out, tc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("serve: empty route spec")
	}
	return out, nil
}
