package core

import (
	"fmt"
	"strings"

	"repro/internal/apps/escat"
	"repro/internal/apps/htf"
	"repro/internal/apps/render"
	"repro/internal/workload"
)

// AppID names one of the characterized applications.
type AppID string

// The three applications of the paper's initial SIO code suite.
const (
	ESCAT  AppID = escat.Name
	RENDER AppID = render.Name
	HTF    AppID = htf.Name
)

// papers is the registry: each application's share of the paper, in the
// paper's order. Nothing else outside the application packages knows which
// applications exist, so adding one is its package plus a line here.
var papers = []*workload.Paper{&escat.Paper, &render.Paper, &htf.Paper}

// Apps lists the available applications.
func Apps() []AppID {
	apps := make([]AppID, len(papers))
	for i, p := range papers {
		apps[i] = AppID(p.Name)
	}
	return apps
}

// AppNames lists the applications for messages: "escat, render, htf".
func AppNames() string {
	names := make([]string, len(papers))
	for i, p := range papers {
		names[i] = p.Name
	}
	return strings.Join(names, ", ")
}

// ParseApp returns the application named name. Its error quotes name and
// lists the valid names, for the caller to prefix with the flag or field.
func ParseApp(name string) (AppID, error) {
	if paperOf(AppID(name)) == nil {
		return "", fmt.Errorf("%q: want one of %s", name, AppNames())
	}
	return AppID(name), nil
}

// paperOf returns app's registry entry, or nil for an unknown app.
func paperOf(app AppID) *workload.Paper {
	for _, p := range papers {
		if AppID(p.Name) == app {
			return p
		}
	}
	return nil
}
