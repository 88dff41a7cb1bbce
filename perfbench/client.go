package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"muse/internal/core"
	"muse/internal/server"
)

type reqKind int

const (
	kindCreate reqKind = iota // POST /v1/sessions: time to the first question
	kindAnswer                // POST .../answer: time to the next question
	kindRead                  // GET of the pending question
	kindResume                // first request a second replica serves for a handed-off dialog
	kindOther                 // result and delete
)

type reqRec struct {
	rid   string
	kind  reqKind
	lat   time.Duration
	token string // kindResume only
}

// client is the closed-loop designer, with its own connection per
// replica.
type client struct {
	hc   *http.Client
	n    int
	reqs []reqRec

	dialogs []*dialogRec

	// busy409 and rejected503 count those statuses; each also fails its
	// dialog, so they read 0 on a run without failures.
	rankings, decisive, busy409, rejected503 int
}

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

// do sends one request under a client-minted request id, which a traced
// run joins to the request's server.request span, and records its
// latency.
func (c *client) do(kind reqKind, method, url, body string) (int, []byte, error) {
	c.n++
	rid := "r" + strconv.Itoa(c.n)
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(server.RequestIDHeader, rid)
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return 0, nil, err
	}
	c.reqs = append(c.reqs, reqRec{rid: rid, kind: kind, lat: lat})
	switch resp.StatusCode {
	case http.StatusConflict:
		c.busy409++
	case http.StatusServiceUnavailable:
		c.rejected503++
	}
	return resp.StatusCode, data, nil
}

type wireRanking struct {
	Decisive bool `json:"decisive"`
}

// wireStep is the part of a step envelope the client reads.
type wireStep struct {
	Token string `json:"token"`
	Step  struct {
		State    string `json:"state"`
		Error    string `json:"error"`
		Grouping struct {
			Ranking *wireRanking `json:"ranking"`
		} `json:"grouping"`
		Choice struct {
			Choices []struct {
				Values []json.RawMessage `json:"values"`
			} `json:"choices"`
			Rankings []wireRanking `json:"rankings"`
		} `json:"choice"`
	} `json:"step"`
}

type wireMapping struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

type wireResult struct {
	State     string        `json:"state"`
	Questions int           `json:"questions"`
	Mappings  []wireMapping `json:"mappings"`
}

// dialogRec is one scripted dialog and what the wire said about it.
type dialogRec struct {
	index     int
	scenario  string
	answers   []core.Answer
	questions int
	// steps counts the dialog's step requests and stepTime sums their
	// latencies.
	steps    int
	stepTime time.Duration
	firstLat time.Duration // the create's
	// cut marks a dialog that spent its client's step budget before
	// it finished; it was deleted with its last question pending.
	cut       bool
	handedOff bool
	result    wireResult
	err       error
}

func sameOutcome(a, b *dialogRec) bool {
	return a.questions == b.questions && a.cut == b.cut && a.result.Questions == b.result.Questions &&
		slices.Equal(a.result.Mappings, b.result.Mappings)
}

// converse plays one dialog: create, answer until done (reading the
// pending question first, or handing the dialog off, where the workload
// says so), fetch the result, delete. A dialog that reaches limit steps
// first is cut: deleted with its question pending.
func (c *client) converse(w dialogWorkload, seed int64, d *dialogRec, dep *deployment, limit int) error {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(d.index)))
	handoffAt := 0
	if w.durable && rng.Float64() < handoffShare {
		handoffAt = 1 + rng.Intn(4)
	}
	status, body, err := c.do(kindCreate, "POST", dep.a.url+"/v1/sessions", `{"scenario": "`+d.scenario+`"}`)
	if err != nil {
		return fmt.Errorf("dialog %d: create: %w", d.index, err)
	}
	if status != http.StatusCreated {
		return fmt.Errorf("dialog %d: create: status %d: %s", d.index, status, body)
	}
	base := dep.a.url
	d.firstLat = c.reqs[len(c.reqs)-1].lat
	for {
		d.steps++
		d.stepTime += c.reqs[len(c.reqs)-1].lat
		var st wireStep
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("dialog %d: decoding step: %w", d.index, err)
		}
		token := st.Token
		c.noteRankings(&st)
		switch st.Step.State {
		case "grouping_question", "choice_question":
		case "done":
			return c.finish(d, dep, base, token)
		default:
			return fmt.Errorf("dialog %d: ended in state %q: %s", d.index, st.Step.State, st.Step.Error)
		}
		d.questions++
		if d.steps >= limit {
			d.cut = true
			return c.remove(d, dep, base, token)
		}
		switch {
		case d.questions == handoffAt:
			base, d.handedOff = dep.b.url, true
			if err := c.reread(kindResume, base, token, body); err != nil {
				return fmt.Errorf("dialog %d: handoff: %w", d.index, err)
			}
			c.reqs[len(c.reqs)-1].token = token
		case w.durable:
			if err := c.reread(kindRead, base, token, body); err != nil {
				return fmt.Errorf("dialog %d: %w", d.index, err)
			}
		}
		a, err := answerFor(rng, &st)
		if err != nil {
			return fmt.Errorf("dialog %d: %w", d.index, err)
		}
		d.answers = append(d.answers, a)
		status, body, err = c.do(kindAnswer, "POST", base+"/v1/sessions/"+token+"/answer", answerBody(a))
		if err != nil {
			return fmt.Errorf("dialog %d: answer %d: %w", d.index, d.questions, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("dialog %d: answer %d: status %d: %s", d.index, d.questions, status, body)
		}
	}
}

// reread fetches the pending question again; the bytes must be the ones
// the step request returned.
func (c *client) reread(kind reqKind, base, token string, want []byte) error {
	status, body, err := c.do(kind, "GET", base+"/v1/sessions/"+token, "")
	if err != nil {
		return fmt.Errorf("reading question: %w", err)
	}
	if status != http.StatusOK || !bytes.Equal(body, want) {
		return fmt.Errorf("reading question: status %d, body differs from the step's", status)
	}
	return nil
}

// finish fetches the refined mappings, then removes the dialog.
func (c *client) finish(d *dialogRec, dep *deployment, base, token string) error {
	status, body, err := c.do(kindOther, "GET", base+"/v1/sessions/"+token+"/result", "")
	if err != nil {
		return fmt.Errorf("dialog %d: result: %w", d.index, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("dialog %d: result: status %d: %s", d.index, status, body)
	}
	if err := json.Unmarshal(body, &d.result); err != nil {
		return fmt.Errorf("dialog %d: decoding result: %w", d.index, err)
	}
	return c.remove(d, dep, base, token)
}

// remove deletes the dialog from every replica holding it.
func (c *client) remove(d *dialogRec, dep *deployment, base, token string) error {
	urls := []string{base}
	if d.handedOff {
		// The first replica still holds the dialog it handed off, and its
		// log handle; deleting it there releases both.
		urls = append(urls, dep.a.url)
	}
	for _, u := range urls {
		status, body, err := c.do(kindOther, "DELETE", u+"/v1/sessions/"+token, "")
		if err != nil {
			return fmt.Errorf("dialog %d: delete: %w", d.index, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("dialog %d: delete: status %d: %s", d.index, status, body)
		}
	}
	return nil
}

func (c *client) noteRankings(st *wireStep) {
	rks := st.Step.Choice.Rankings
	if r := st.Step.Grouping.Ranking; r != nil {
		rks = append(rks, *r)
	}
	for _, r := range rks {
		c.rankings++
		if r.Decisive {
			c.decisive++
		}
	}
}

// answerFor draws the answer to the pending question from the dialog's
// own random stream, never from the rankings, so the question sequence
// is fixed: a coin for a grouping question; per or-group one
// alternative, or two in 15% of groups (which keeps two interpretations
// and splits the mapping).
func answerFor(rng *rand.Rand, st *wireStep) (core.Answer, error) {
	if st.Step.State == "grouping_question" {
		return core.Answer{Scenario: 1 + rng.Intn(2)}, nil
	}
	groups := st.Step.Choice.Choices
	sel := make([][]int, len(groups))
	for i, g := range groups {
		n := len(g.Values)
		if n == 0 {
			return core.Answer{}, fmt.Errorf("or-group %d offers no values", i)
		}
		first := rng.Intn(n)
		sel[i] = []int{first}
		if n >= 2 && rng.Float64() < 0.15 {
			sel[i] = append(sel[i], (first+1+rng.Intn(n-1))%n)
		}
	}
	return core.Answer{Choices: sel}, nil
}

func answerBody(a core.Answer) string {
	if a.Choices == nil {
		return `{"scenario": ` + strconv.Itoa(a.Scenario) + `}`
	}
	b, _ := json.Marshal(map[string][][]int{"choices": a.Choices}) // [][]int always marshals
	return string(b)
}
