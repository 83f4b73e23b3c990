// Artifact persistence and the p99 regression gate. One engine run writes
// one LOAD_<stamp>.json file; the lexically latest existing artifact in the
// same directory is the baseline the next run is compared against. Stamps
// sort lexically because they are fixed-width UTC timestamps, so "latest
// file" and "latest run" agree without parsing anything.
package load

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Write persists res as <dir>/LOAD_<stamp>.json and returns the path.
// res.Stamp must be set (see StampNow).
func Write(dir string, res *Result) (string, error) {
	if res.Stamp == "" {
		return "", fmt.Errorf("load: artifact stamp unset")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return "", err
	}
	// Stamps have second granularity; two runs inside one second must not
	// silently overwrite each other (the earlier file may already be the
	// baseline a comparison just ran against). De-collide with a numeric
	// suffix that preserves lexical ordering within the second.
	path := filepath.Join(dir, "LOAD_"+res.Stamp+".json")
	for n := 2; ; n++ {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			break
		}
		path = filepath.Join(dir, fmt.Sprintf("LOAD_%s_%d.json", res.Stamp, n))
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// Latest loads the lexically latest usable LOAD_*.json artifact in dir.
// Zero-length files are skipped: a crashed writer's debris is not a
// baseline, and the newest usable artifact behind it still is. A missing
// directory or one with no usable artifact returns ("", nil, nil): no
// baseline is not an error, it is the first run.
func Latest(dir string) (string, *Result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "LOAD_*.json"))
	if err != nil {
		return "", nil, err
	}
	sort.Strings(paths)
	path := ""
	for i := len(paths) - 1; i >= 0 && path == ""; i-- {
		if info, err := os.Stat(paths[i]); err == nil && !info.IsDir() && info.Size() > 0 {
			path = paths[i]
		}
	}
	if path == "" {
		return "", nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return "", nil, fmt.Errorf("load: parsing baseline %s: %w", path, err)
	}
	if res.Schema != Schema {
		return "", nil, fmt.Errorf("load: baseline %s has schema %q, want %q", path, res.Schema, Schema)
	}
	return path, &res, nil
}

// DefaultBaselineRatio is CompareBaseline's bound when none is given: the
// widest bucket spacing is 2.5×, so 3 tolerates exactly one bucket of
// cross-machine jitter and trips on a two-bucket (≥4×) regression.
const DefaultBaselineRatio = 3

// CompareBaseline gates res against a prior run: the well-behaved tenant's
// solo and contended p99 may regress by at most maxRatio (≤0 defaults to
// DefaultBaselineRatio). The comparison uses the bucket-quantized
// quantiles — runs whose latencies land in the same buckets compare as
// exactly equal, so only bucket-visible regressions trip across machines.
// A nil baseline passes.
func CompareBaseline(res, base *Result, maxRatio float64) error {
	if base == nil {
		return nil
	}
	if maxRatio <= 0 {
		maxRatio = DefaultBaselineRatio
	}
	check := func(name string, got, prior float64) error {
		if prior <= 0 {
			return nil
		}
		if got > prior*maxRatio {
			return fmt.Errorf("load: %s p99 regressed: %.1fms vs baseline %.1fms (max ratio %.2f)",
				name, got, prior, maxRatio)
		}
		return nil
	}
	if err := check("solo", res.GoodSoloP99Bucket, base.GoodSoloP99Bucket); err != nil {
		return err
	}
	return check("contended", res.GoodContendedP99Bucket, base.GoodContendedP99Bucket)
}
