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
		built, err := s.App.New()
		if err != nil || built.Name() != string(app) {
			t.Fatalf("paper study of %s builds %v, %v", app, built, err)
		}
		small := iochar.SmallStudy(app)
		if small.App.ComputeNodes() >= s.App.ComputeNodes() {
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
