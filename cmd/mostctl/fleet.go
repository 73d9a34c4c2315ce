package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"neesgrid/internal/fleet"
)

// fleetCmd drives a fleetd scheduler: submit, list, inspect and cancel
// jobs against a running daemon (-url).
func fleetCmd(args []string) {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	urlFlag := fs.String("url", "", "fleetd base URL for the client verbs")
	submit := fs.Bool("submit", false, "submit a job (-tenant, -name, -slots, -job-steps)")
	tenant := fs.String("tenant", "", "tenant for -submit")
	name := fs.String("name", "job", "run name for -submit")
	slots := fs.Int("slots", 1, "site slots for -submit")
	jobSteps := fs.Int("job-steps", 200, "integration steps for -submit")
	list := fs.Bool("list", false, "list jobs")
	status := fs.String("status", "", "show one job by ID")
	cancel := fs.String("cancel", "", "cancel a job by ID")
	_ = fs.Parse(args)

	if *urlFlag == "" {
		fatalExit("fleet: need -url")
	}
	base := strings.TrimRight(*urlFlag, "/")
	switch {
	case *submit:
		if *tenant == "" {
			fatalExit("fleet: -submit needs -tenant")
		}
		var view fleet.JobView
		err := postJSON(base+"/submit", fleet.Request{
			Tenant: *tenant, Name: *name, Slots: *slots, Steps: *jobSteps,
		}, &view)
		if err != nil {
			fatalExit("fleet: submit: %v", err)
		}
		fmt.Printf("mostctl: submitted %s (tenant %s, %d slots, %d steps)\n",
			view.ID, view.Tenant, view.Slots, *jobSteps)
	case *list:
		var views []fleet.JobView
		if err := getJSON(base+"/jobs", &views); err != nil {
			fatalExit("fleet: list: %v", err)
		}
		printJobs(views)
	case *status != "":
		var view fleet.JobView
		if err := getJSON(base+"/job?id="+url.QueryEscape(*status), &view); err != nil {
			fatalExit("fleet: status: %v", err)
		}
		printJobs([]fleet.JobView{view})
	case *cancel != "":
		resp, err := http.Post(base+"/cancel?id="+url.QueryEscape(*cancel), "", nil)
		if err != nil {
			fatalExit("fleet: cancel: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			fatalExit("fleet: cancel: %s returned %s", base, resp.Status)
		}
		fmt.Printf("mostctl: cancelled %s\n", *cancel)
	default:
		fatalExit("fleet: need one of -submit, -list, -status, -cancel")
	}
}

func printJobs(views []fleet.JobView) {
	fmt.Printf("%-22s %-8s %-10s %-5s %-4s %-6s %s\n",
		"ID", "TENANT", "STATE", "SLOTS", "SEQ", "STEPS", "ERR")
	for _, v := range views {
		errText := v.Err
		if len(errText) > 40 {
			errText = errText[:40] + "…"
		}
		fmt.Printf("%-22s %-8s %-10s %-5d %-4d %-6d %s\n",
			v.ID, v.Tenant, v.State, v.Slots, v.Seq, v.StepsDone, errText)
	}
}

// postJSON posts a JSON body and decodes the JSON response.
func postJSON(u string, body any, into any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(u, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s returned %s: %s", u, resp.Status, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(into)
}
