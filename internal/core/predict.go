package core

import (
	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/irr"
	"repro/internal/report"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// This file quantifies the paper's implication claim (§1, §4.2):
// BGP hides localpref, so routing models built on Gao-Rexford
// assumptions or on prepending signals mispredict route choices, and
// the paper's inferred preferences are "a crucial step in being able
// to accurately model routing policies". Four predictors forecast
// each probed system's per-round return route during the Internet2
// experiment; their accuracies make the claim concrete.

// Model identifies a route-choice predictor.
type Model uint8

// Models.
const (
	// ModelGaoRexford assumes uniform policy: both candidates are
	// provider routes, so the shorter AS path wins (ties to the
	// commodity side, the age-favoured route in the first phase).
	ModelGaoRexford Model = iota
	// ModelPrependSignal additionally reads the origin's relative
	// prepending as its preference (Table 4's hypothesis): prepending
	// more toward commodity means prefer-R&E, more toward R&E means
	// prefer-commodity, equal falls back to path length.
	ModelPrependSignal
	// ModelIRRDocumented reads each origin's registry-documented
	// import preferences (aut-num pref actions) where published,
	// falling back to path length — the Wang & Gao modeling input,
	// limited by registry coverage and staleness (§2.2).
	ModelIRRDocumented
	// ModelInferred uses the *other* experiment's data-plane inference
	// (the paper's method) for each prefix: always-R&E and
	// always-commodity predictions are path-length-insensitive;
	// switch-to-R&E prefixes follow path length.
	ModelInferred
	numModels
)

func (m Model) String() string {
	switch m {
	case ModelGaoRexford:
		return "Gao-Rexford (uniform policy)"
	case ModelPrependSignal:
		return "Prepend signal (Table 4)"
	case ModelIRRDocumented:
		return "IRR-documented policy (Wang & Gao)"
	case ModelInferred:
		return "Inferred localpref (this paper)"
	default:
		return "unknown"
	}
}

// PredictionEval scores the models.
type PredictionEval struct {
	// Correct / Total per model, over (prefix, round) observations.
	Correct [numModels]int
	Total   [numModels]int
	// Skipped counts prefixes without the needed candidate-length
	// information (e.g. no commodity path anywhere nearby).
	Skipped int
}

// Accuracy returns a model's fraction of correct per-round calls.
func (pe *PredictionEval) Accuracy(m Model) float64 {
	if pe.Total[m] == 0 {
		return 0
	}
	return float64(pe.Correct[m]) / float64(pe.Total[m])
}

// candidateLens recovers a member's base (unprepended) R&E and
// commodity path lengths for the measurement prefix from the engine's
// final state, classifying candidates by origin ASN. ok is false if
// either side is unobtainable.
func candidateLens(eco *topo.Ecosystem, info *topo.ASInfo, reOrigins map[asn.AS]bool,
	finalRE, finalComm int) (reLen, commLen int, ok bool) {
	sp := eco.Net.Speaker(info.Router)
	meas := eco.MeasPrefix
	reLen, commLen = -1, -1
	consider := func(r *bgp.Route) {
		if r == nil {
			return
		}
		if reOrigins[r.Path.Origin()] {
			if l := r.Path.Len() - finalRE; reLen < 0 || l < reLen {
				reLen = l
			}
		} else if r.Path.Origin() == asn.AS(396955) {
			if l := r.Path.Len() - finalComm; commLen < 0 || l < commLen {
				commLen = l
			}
		}
	}
	for _, r := range sp.AdjInAll(meas) {
		consider(r)
	}
	if commLen < 0 {
		// Default-only importers deny the commodity route; a modeler
		// would estimate their commodity length via the upstream's
		// route plus one hop.
		for _, upAS := range info.CommodityProviders {
			up := eco.AS(upAS)
			if up == nil {
				continue
			}
			for _, r := range eco.Net.Speaker(up.Router).AdjInAll(meas) {
				if r.Path.Origin() == asn.AS(396955) {
					if l := r.Path.Len() - finalComm + 1; commLen < 0 || l < commLen {
						commLen = l
					}
				}
			}
		}
	}
	return reLen, commLen, reLen >= 0 && commLen >= 0
}

// lengthRulePredictsRE is the shared AS-path-length tie-break.
func lengthRulePredictsRE(reLen, commLen int, cfg PrependConfig) bool {
	return reLen+cfg.RE < commLen+cfg.Commodity
}

// EvaluatePredictors scores the models against the Internet2
// experiment's observed per-round return routes. trainRes supplies the
// ModelInferred predictions (use the SURF result: cross-experiment
// prediction, one week apart); views supplies the prepend signal; reg
// (optional) supplies the IRR-documented policies.
func EvaluatePredictors(eco *topo.Ecosystem, trainRes, evalRes *Result, views map[asn.AS]*OriginView, reg *irr.Registry) *PredictionEval {
	pe := &PredictionEval{}
	reOrigins := map[asn.AS]bool{11537: true, 1125: true}

	for _, pr := range evalRes.PerPrefix {
		if pr.Inference == InfUnresponsive {
			continue
		}
		p := pr.Prefix
		pi := eco.PrefixInfoFor(p)
		if pi == nil || pi.Site != topo.SitePrimary || pi.MixedAltHost {
			continue
		}
		info := eco.AS(pi.Origin)
		if info == nil || info.Class != topo.ClassMember {
			continue
		}
		final := Schedule()[len(Schedule())-1]
		reLen, commLen, ok := candidateLens(eco, info, reOrigins, final.RE, final.Commodity)
		if !ok {
			pe.Skipped++
			continue
		}

		// Model-specific per-prefix posture.
		rel := RelNoCommodity
		if ov := views[pi.Origin]; ov != nil {
			rel = ov.Rel()
		}
		var trainInf Inference
		hasTrain := false
		if tr := trainRes.Find(p); tr != nil && tr.Inference != InfUnresponsive {
			trainInf, hasTrain = tr.Inference, true
		}
		irrDoc := 0
		if reg != nil {
			var commodity []asn.AS
			commodity = append(commodity, info.CommodityProviders...)
			if len(info.REProviders) > 0 {
				irrDoc = irr.DocumentedPreference(reg.AutNum(info.AS), info.REProviders[0], commodity)
			}
		}

		for i, obs := range pr.Seq {
			if obs != ObsRE && obs != ObsCommodity {
				continue
			}
			actualRE := obs == ObsRE
			cfg := Schedule()[i]
			lengthRE := lengthRulePredictsRE(reLen, commLen, cfg)

			// Gao-Rexford.
			score(pe, ModelGaoRexford, lengthRE, actualRE)

			// Prepend signal.
			var prepRE bool
			switch rel {
			case RelRLessC:
				prepRE = true
			case RelRGreaterC:
				prepRE = false
			default:
				prepRE = lengthRE
			}
			score(pe, ModelPrependSignal, prepRE, actualRE)

			// IRR-documented policy: a definite documented preference
			// is taken at face value; equal or undocumented falls back
			// to the length rule.
			irrRE := lengthRE
			switch irrDoc {
			case 1:
				irrRE = true
			case -1:
				irrRE = false
			}
			score(pe, ModelIRRDocumented, irrRE, actualRE)

			// Inferred localpref (cross-experiment).
			infRE := lengthRE
			if hasTrain {
				switch trainInf {
				case InfAlwaysRE:
					infRE = true
				case InfAlwaysCommodity:
					infRE = false
				case InfSwitchToRE:
					infRE = lengthRE
				}
			}
			score(pe, ModelInferred, infRE, actualRE)
		}
	}
	return pe
}

func score(pe *PredictionEval, m Model, predictedRE, actualRE bool) {
	pe.Total[m]++
	if predictedRE == actualRE {
		pe.Correct[m]++
	}
}

// Table renders the model comparison.
func (pe *PredictionEval) Table() *report.Table {
	t := &report.Table{
		Title:   "Route prediction accuracy (per prefix-round, Internet2 experiment)",
		Headers: []string{"Model", "Correct", "Total", "Accuracy"},
	}
	for m := Model(0); m < numModels; m++ {
		t.AddRow(m.String(), itoa(pe.Correct[m]), itoa(pe.Total[m]),
			report.Pct(pe.Correct[m], pe.Total[m]))
	}
	return t
}

// vlanForBool is a tiny helper for tests.
func vlanForBool(re bool) simnet.VLAN {
	if re {
		return simnet.VLANRE
	}
	return simnet.VLANCommodity
}
