// Tests of the public facade: everything a library consumer touches.
package iochar_test

import (
	"strings"
	"testing"

	iochar "repro"
)

func TestFacadeAppsAndStudies(t *testing.T) {
	for _, app := range []iochar.AppID{iochar.ESCAT, iochar.RENDER, iochar.HTF} {
		s := iochar.PaperStudy(app)
		if s.App != app || s.Machine.ComputeNodes == 0 {
			t.Fatalf("paper study %+v", s)
		}
		small := iochar.SmallStudy(app)
		if small.Machine.ComputeNodes >= s.Machine.ComputeNodes {
			t.Fatalf("%s small study not smaller", app)
		}
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	report, err := iochar.Run(iochar.SmallStudy(iochar.RENDER))
	if err != nil {
		t.Fatal(err)
	}
	if report.App != iochar.RENDER {
		t.Fatalf("app %v", report.App)
	}
	tables := report.Tables()
	if len(tables) != 2 || !strings.Contains(tables[0], "RENDER") {
		t.Fatalf("tables %v", tables)
	}
	if _, err := report.Figure(7); err != nil {
		t.Fatal(err)
	}
}

func TestFacadePolicyRun(t *testing.T) {
	pol := iochar.DefaultPolicy()
	s := iochar.SmallStudy(iochar.ESCAT)
	s.Policy = &pol
	report, err := iochar.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if report.PolicyStats == nil || report.PolicyStats.BufferedWrites == 0 {
		t.Fatalf("policy stats %+v", report.PolicyStats)
	}
}

func TestFacadeCrossover(t *testing.T) {
	m := iochar.DefaultCrossoverModel()
	if be := m.BreakEvenRate(); be < 5e6 || be > 10e6 {
		t.Fatalf("break-even %f", be)
	}
}
