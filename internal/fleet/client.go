package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/timeline"
)

// Client speaks gsbfleet/v1 to a coordinator: one typed method per route
// a worker or an operator calls. It is the only code that builds a /v1/
// path or decodes an error body; the Worker and cmd/gsbfleet both use it.
// A non-2xx answer comes back as an error carrying the coordinator's
// message and status code (the worker tells a 409 ownership fence and a
// 404 unknown worker apart by it).
type Client struct {
	// Base is the coordinator's base URL (http://host:port).
	Base string
	// HTTP sends the requests (nil: a client with a 30s timeout).
	HTTP *http.Client
	// off, when set, refuses every request while it holds true, before
	// the request reaches HTTP's transport: a killed worker sends
	// nothing at all.
	off *atomic.Bool
}

var defaultHTTP = &http.Client{Timeout: 30 * time.Second}

// Submit posts a campaign: POST /v1/campaigns.
func (c *Client) Submit(sub Submission) (SubmitResponse, error) {
	var resp SubmitResponse
	_, err := c.call("POST", "/v1/campaigns", sub, &resp)
	return resp, err
}

// Campaigns lists every campaign's status: GET /v1/campaigns.
func (c *Client) Campaigns() ([]CampaignStatus, error) {
	var resp []CampaignStatus
	_, err := c.call("GET", "/v1/campaigns", nil, &resp)
	return resp, err
}

// Campaign reads one campaign's live status: GET /v1/campaigns/{id}.
func (c *Client) Campaign(id string) (CampaignStatus, error) {
	var resp CampaignStatus
	_, err := c.call("GET", "/v1/campaigns/"+id, nil, &resp)
	return resp, err
}

// Result reads a finished campaign's status (a 409 error until it is
// merged): GET /v1/campaigns/{id}/result.
func (c *Client) Result(id string) (CampaignStatus, error) {
	var resp CampaignStatus
	_, err := c.call("GET", "/v1/campaigns/"+id+"/result", nil, &resp)
	return resp, err
}

// Timeline reads a campaign's merged coverage series: GET
// /v1/campaigns/{id}/timeline.
func (c *Client) Timeline(id string) ([]timeline.Record, error) {
	var resp []timeline.Record
	_, err := c.call("GET", "/v1/campaigns/"+id+"/timeline", nil, &resp)
	return resp, err
}

// Upload posts the snapshot file at path, with its timeline sidecar when
// one exists, as shard `shard` of a campaign: POST
// /v1/campaigns/{id}/shards/{shard}/snapshot. workerID names the shard's
// owner; empty is an operator import.
func (c *Client) Upload(campaignID string, shard int, workerID, path string) (UploadResponse, error) {
	snap, err := os.ReadFile(path)
	if err != nil {
		return UploadResponse{}, fmt.Errorf("fleet: %w", err)
	}
	side, err := os.ReadFile(timeline.SidecarPath(path))
	if err != nil && !os.IsNotExist(err) {
		return UploadResponse{}, fmt.Errorf("fleet: %w", err)
	}
	var resp UploadResponse
	_, err = c.call("POST", uploadRoute(campaignID, shard),
		UploadRequest{Schema: Schema, WorkerID: workerID, Snapshot: snap, Timeline: side}, &resp)
	return resp, err
}

// uploadRoute is the path of a shard's snapshot upload.
func uploadRoute(campaignID string, shard int) string {
	return fmt.Sprintf("/v1/campaigns/%s/shards/%d/snapshot", campaignID, shard)
}

// Fail reports a terminal engine error on a shard the worker owns: POST
// /v1/campaigns/{id}/shards/{shard}/fail.
func (c *Client) Fail(campaignID string, shard int, workerID, msg string) error {
	_, err := c.call("POST", fmt.Sprintf("/v1/campaigns/%s/shards/%d/fail", campaignID, shard),
		FailRequest{Schema: Schema, WorkerID: workerID, Error: msg}, &Ack{})
	return err
}

// Register opens a worker session: POST /v1/workers.
func (c *Client) Register(name string) (RegisterResponse, error) {
	var resp RegisterResponse
	_, err := c.call("POST", "/v1/workers", RegisterRequest{Schema: Schema, Name: name}, &resp)
	return resp, err
}

// Heartbeat keeps a worker session alive: POST
// /v1/workers/{id}/heartbeat.
func (c *Client) Heartbeat(workerID string) error {
	_, err := c.call("POST", "/v1/workers/"+workerID+"/heartbeat", none{}, &HeartbeatResponse{})
	return err
}

// Lease claims the queue head: POST /v1/workers/{id}/lease. ok is false
// when the queue is empty (a 204).
func (c *Client) Lease(workerID string) (task Task, ok bool, err error) {
	var resp LeaseResponse
	status, err := c.call("POST", "/v1/workers/"+workerID+"/lease", none{}, &resp)
	return resp.Task, err == nil && status != http.StatusNoContent, err
}

// Release hands a drained shard back for immediate re-deal: POST
// /v1/workers/{id}/release.
func (c *Client) Release(workerID, campaignID string, shard int) error {
	_, err := c.call("POST", "/v1/workers/"+workerID+"/release",
		ReleaseRequest{Schema: Schema, CampaignID: campaignID, Shard: shard}, &Ack{})
	return err
}

// Deregister closes a worker session: DELETE /v1/workers/{id}.
func (c *Client) Deregister(workerID string) error {
	_, err := c.call("DELETE", "/v1/workers/"+workerID, nil, &Ack{})
	return err
}

// Status reads the fleet-wide view: GET /status.
func (c *Client) Status() (FleetStatus, error) {
	var resp FleetStatus
	_, err := c.call("GET", "/status", nil, &resp)
	return resp, err
}

// call sends one request, with in as its JSON body unless in is nil, and
// decodes a 2xx answer that has a body into out. A non-2xx answer becomes
// an *httpError with the coordinator's message.
func (c *Client) call(method, path string, in, out any) (status int, err error) {
	if c.off != nil && c.off.Load() {
		return 0, errors.New("fleet: worker killed")
	}
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return 0, fmt.Errorf("fleet: %w", err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.Base+path, body)
	if err != nil {
		return 0, fmt.Errorf("fleet: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	hc := c.HTTP
	if hc == nil {
		hc = defaultHTTP
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("fleet: %w", err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode/100 != 2:
		var ae apiError
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(data, &ae) == nil && ae.Error != "" {
			return resp.StatusCode, &httpError{resp.StatusCode, ae.Error}
		}
		return resp.StatusCode, &httpError{resp.StatusCode, "fleet: coordinator returned " + resp.Status}
	case resp.StatusCode == http.StatusNoContent:
		return resp.StatusCode, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("fleet: response to %s %s: %w", method, path, err)
	}
	return resp.StatusCode, nil
}
