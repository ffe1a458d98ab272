package topo

import (
	"fmt"
	"strings"
)

// Scale names a generator size tier. The tiers share one topology
// grammar (commodity core, R&E backbones, NRENs, regionals, members);
// only the population counts and the RIB layout differ.
type Scale int

// Scale tiers.
const (
	// ScaleSmall is the reduced test ecosystem (~250 members).
	ScaleSmall Scale = iota
	// ScalePaper is the paper-faithful ecosystem (~2,600 R&E ASes,
	// ~17K prefixes — the magnitude the study surveyed).
	ScalePaper
	// ScaleInternet is the full-Internet magnitude target (~80K ASes,
	// ~1M prefixes) on the compact arena-backed RIB layout.
	ScaleInternet
)

func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScalePaper:
		return "paper"
	case ScaleInternet:
		return "internet"
	default:
		return fmt.Sprintf("scale(%d)", int(s))
	}
}

// ParseScale maps a flag value onto a Scale.
func ParseScale(v string) (Scale, error) {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "small":
		return ScaleSmall, nil
	case "paper":
		return ScalePaper, nil
	case "internet":
		return ScaleInternet, nil
	default:
		return 0, fmt.Errorf("topo: unknown scale %q (want small, paper, or internet)", v)
	}
}

// Config returns the tier's generator configuration.
func (s Scale) Config() GenConfig {
	switch s {
	case ScaleSmall:
		return SmallConfig()
	case ScaleInternet:
		return InternetConfig()
	default:
		return DefaultConfig()
	}
}
