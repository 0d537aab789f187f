package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/selfishmining"
)

func TestParseConfigs(t *testing.T) {
	got, err := parseConfigs("1x1, 2x2,3x2")
	if err != nil {
		t.Fatalf("parseConfigs: %v", err)
	}
	if len(got) != 3 || got[0].Depth != 1 || got[1].Forks != 2 || got[2].Depth != 3 {
		t.Errorf("parseConfigs = %+v", got)
	}
}

func TestParseConfigsErrors(t *testing.T) {
	for _, bad := range []string{"", "2y2", "x", "2x"} {
		if _, err := parseConfigs(bad); err == nil {
			t.Errorf("parseConfigs(%q) accepted", bad)
		}
	}
}

func TestRunSmallSweep(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-gamma", "0.5", "-pmin", "0.1", "-pmax", "0.3", "-pstep", "0.1",
		"-configs", "1x1", "-l", "2", "-width", "2", "-eps", "1e-3", "-q",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 { // header + 3 grid points
		t.Fatalf("got %d lines:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "p,honest,single-tree") {
		t.Errorf("unexpected header %q", lines[0])
	}
}

func TestRunMarkdown(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-gamma", "0", "-pmin", "0.2", "-pmax", "0.2", "-pstep", "0.1",
		"-configs", "1x1", "-l", "2", "-width", "2", "-eps", "1e-2", "-q", "-markdown",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "| p |") {
		t.Errorf("markdown output missing table header:\n%s", out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-configs", "junk"}, &bytes.Buffer{}); err == nil {
		t.Fatal("bad configs accepted")
	}
}

func TestRunNonForkModel(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-model", "nakamoto", "-gamma", "0", "-pmin", "0.2", "-pmax", "0.4", "-pstep", "0.2",
		"-eps", "1e-2", "-q",
	}, &out)
	if err != nil {
		t.Fatalf("run(-model nakamoto): %v", err)
	}
	header := strings.SplitN(strings.TrimSpace(out.String()), "\n", 2)[0]
	if !strings.Contains(header, "nakamoto(") {
		t.Errorf("header %q missing the family-named series", header)
	}
	if strings.Contains(header, "single-tree") {
		t.Errorf("header %q carries the fork-only single-tree baseline", header)
	}
}

func TestRunRejectsUnknownModel(t *testing.T) {
	err := run(context.Background(), []string{"-model", "bogus", "-q"}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("unknown -model accepted")
	}
	for _, want := range []string{"bogus", "fork", "nakamoto", "singletree"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q (must list valid families)", err, want)
		}
	}
}

func TestRunRejectsBadFlagCombos(t *testing.T) {
	for _, args := range [][]string{
		{"-pstep", "0"},
		{"-pstep", "-0.1"},
		{"-pstep", "inf"},
		{"-pmin", "0.5", "-pmax", "0.2"},
		{"-pmin", "-0.1"},
		{"-pmax", "1.5"},
		{"-pmax", "1e9"},
		{"-pmin", "-1e9"},
		{"-pmin", "nan"},
		{"-eps", "0"},
		{"-l", "0"},
		{"-width", "0"},
		{"-width", "32"},
		{"-configs", "1x1", "-l", "9"},
		{"-configs", "1x1", "-pmin", "0.1", "-pmax", "0.1", "-width", "31"},
		{"-workers", "-2"},
	} {
		if err := run(context.Background(), args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted, want non-nil error (non-zero exit)", args)
		}
	}
}

// TestRunTimeoutCancelsSweep: -timeout interrupts the panel cleanly — a
// cancellation error, no partial output file.
func TestRunTimeoutCancelsSweep(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-gamma", "0.5", "-configs", "2x1", "-l", "3", "-eps", "1e-3",
		"-pstep", "0.01", "-timeout", "1ns", "-q",
	}, &out)
	if err == nil {
		t.Fatal("1ns timeout produced a full panel")
	}
	if !errors.Is(err, selfishmining.ErrCanceled) {
		t.Fatalf("timeout error %v does not match selfishmining.ErrCanceled", err)
	}
	if out.Len() != 0 {
		t.Errorf("interrupted sweep wrote %d bytes of panel output, want none (all-or-nothing)", out.Len())
	}
}

func TestRunRejectsNegativeTimeout(t *testing.T) {
	if err := run(context.Background(), []string{"-timeout", "-1s"}, &bytes.Buffer{}); err == nil {
		t.Fatal("negative -timeout accepted")
	}
}

// TestRunRejectsBadRemoteFlagCombos mirrors cmd/analyze: the async-job
// flags demand a consistent combination.
func TestRunRejectsBadRemoteFlagCombos(t *testing.T) {
	for _, args := range [][]string{
		{"-submit"},
		{"-resume", "j123"},
		{"-server", "http://x"},
		{"-wait"},
		{"-server", "http://x", "-submit", "-resume", "j123"},
	} {
		if err := run(context.Background(), args, io.Discard); err == nil {
			t.Errorf("args %v accepted, want non-nil error", args)
		}
	}
}
