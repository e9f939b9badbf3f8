package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	"replicatree/internal/serve"
)

// gate is the correctness check every run ends with. It snapshots the
// instance, rebuilds a session from the snapshot file, and requires
// the rebuilt session's placement, cost and Pareto front to be
// byte-identical to what the live server serves.
func gate(e *env, c *client, hasPower bool) error {
	out, err := c.call(http.MethodPost, "/instances/"+instanceID+"/snapshot", nil, http.StatusOK)
	if err != nil {
		return err
	}
	var snapResp struct {
		Path string `json:"path"`
	}
	if err := json.Unmarshal(out, &snapResp); err != nil {
		return fmt.Errorf("snapshot response: %w", err)
	}
	// The path must stay inside the data directory the server was given.
	if filepath.Dir(snapResp.Path) != filepath.Clean(e.dataDir) {
		return fmt.Errorf("snapshot written to %q, outside data directory %q", snapResp.Path, e.dataDir)
	}

	placement, err := c.call(http.MethodGet, "/instances/"+instanceID+"/placement", nil, http.StatusOK)
	if err != nil {
		return err
	}
	var live struct {
		Modes json.RawMessage `json:"modes"`
		Cost  json.RawMessage `json:"cost"`
	}
	if err := json.Unmarshal(placement, &live); err != nil {
		return fmt.Errorf("placement response: %w", err)
	}

	f, err := os.Open(snapResp.Path)
	if err != nil {
		return err
	}
	sess, err := serve.ReadSnapshot(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("rebuilding from snapshot: %w", err)
	}
	defer sess.Close()
	sn := sess.Snapshot()

	if err := sameJSON("placement", live.Modes, sn.Modes); err != nil {
		return err
	}
	if err := sameJSON("cost", live.Cost, sn.Cost); err != nil {
		return err
	}
	if !hasPower {
		return nil
	}
	front, err := c.call(http.MethodGet, "/instances/"+instanceID+"/front", nil, http.StatusOK)
	if err != nil {
		return err
	}
	var liveFront struct {
		Front json.RawMessage `json:"front"`
	}
	if err := json.Unmarshal(front, &liveFront); err != nil {
		return fmt.Errorf("front response: %w", err)
	}
	if sn.Power == nil {
		return fmt.Errorf("front mismatch: rebuilt session has no power model")
	}
	return sameJSON("front", liveFront.Front, sn.Power.Front)
}

// sameJSON compares the served bytes of a field with the encoding of
// the rebuilt session's value.
func sameJSON(what string, served json.RawMessage, rebuilt any) error {
	want, err := json.Marshal(rebuilt)
	if err != nil {
		return err
	}
	if !bytes.Equal(served, want) {
		return fmt.Errorf("%s mismatch: live server and session rebuilt from its snapshot differ (%d vs %d bytes)",
			what, len(served), len(want))
	}
	return nil
}

// evalResult is the part of an eval response the benchmark checks.
type evalResult struct {
	Issued       int `json:"issued"`
	Served       int `json:"served"`
	Unserved     int `json:"unserved"`
	FailUnserved int `json:"fail_unserved"`
}

// checkEval requires an eval response to conserve demand: every issued
// request is served, unserved, or lost to the failure mask.
func checkEval(body []byte) error {
	var r evalResult
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("eval response: %w", err)
	}
	if r.Issued != r.Served+r.Unserved+r.FailUnserved {
		return fmt.Errorf("eval does not conserve demand: issued %d != served %d + unserved %d + fail_unserved %d",
			r.Issued, r.Served, r.Unserved, r.FailUnserved)
	}
	return nil
}
