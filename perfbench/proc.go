package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one child process of the benchmark.
type proc struct {
	name   string
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been waited for
	err    error         // exit status, valid after exited is closed
}

// start launches bin/<prog> with its output in <work>/<name>.log.
func (b *bench) start(prog, name string, args ...string) (*proc, error) {
	log, err := os.Create(filepath.Join(b.work, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(b.bin, prog), args...)
	cmd.Stdout, cmd.Stderr = log, log
	// A benchmark that dies mid-run must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, exited: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		log.Close()
		close(p.exited)
	}()
	return p, nil
}

// stop asks the process to drain (SIGTERM) and kills it if it has not
// exited ten seconds later. It returns once the process is gone.
func (p *proc) stop() {
	select {
	case <-p.exited:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// server is one running oracled.
type server struct {
	url string
	p   *proc
}

// startOracled launches an oracled on a free localhost port and waits
// until /healthz answers. Another process may take the port between
// freeAddr and oracled's bind, so a start-up failure is retried on a new
// port.
func (b *bench) startOracled(name string) (*server, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var addr string
		if addr, err = freeAddr(); err != nil {
			return nil, err
		}
		var p *proc
		if p, err = b.start("oracled", name, "-addr", addr); err != nil {
			return nil, err
		}
		s := &server{url: "http://" + addr, p: p}
		if err = waitHealthy(s); err == nil {
			return s, nil
		}
		p.stop()
	}
	return nil, err
}

// freeAddr returns a localhost address no listener holds right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

var probeClient = &http.Client{Timeout: 2 * time.Second}

func waitHealthy(s *server) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := probeClient.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after 30s", s.p.name)
		}
		select {
		case <-s.p.exited:
			return fmt.Errorf("%s exited during start-up: %v", s.p.name, s.p.err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// newClient returns an HTTP client keeping one idle connection per
// closed-loop client, so connections are reused rather than redialled.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// post sends a JSON body and returns the response body and status.
func post(c *http.Client, url string, body []byte) ([]byte, int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}

// promSample maps a Prometheus series ("name" or "name{labels}") to its
// value.
type promSample map[string]float64

// scrape reads an oracled /metrics page.
func scrape(url string) (promSample, error) {
	resp, err := probeClient.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", url, resp.StatusCode)
	}
	s := promSample{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// delta returns after-before for every series in after; series missing
// from the page read as 0, so a renamed metric degrades to zeros instead
// of failing the run.
func delta(before, after promSample) promSample {
	d := promSample{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sum adds several deltas series by series.
func sum(samples ...promSample) promSample {
	s := promSample{}
	for _, x := range samples {
		for k, v := range x {
			s[k] += v
		}
	}
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
