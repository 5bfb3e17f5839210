package main

import (
	"bytes"
	"encoding/json"
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

// server is one proqld child process on a data directory.
type server struct {
	bin  string
	dir  string
	addr string
	sp   spec
	cmd  *exec.Cmd
	// exited is closed once the child has been waited for.
	exited chan struct{}
	client *http.Client
}

func newServer(bin, dir string, sp spec) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	return &server{
		bin: bin, dir: dir, addr: addr, sp: sp,
		client: &http.Client{
			Transport: &http.Transport{
				MaxConnsPerHost:     clients,
				MaxIdleConnsPerHost: clients,
				DisableCompression:  true,
			},
			Timeout: 60 * time.Second,
		},
	}, nil
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick a loopback port: %w", err)
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// start launches proqld and returns the time from launch to the first
// 200 from /v1/healthz.
func (s *server) start() (time.Duration, error) {
	args := []string{
		"-addr", s.addr,
		"-peers", strconv.Itoa(s.sp.peers), "-data", "2", "-base", strconv.Itoa(s.sp.base),
		"-topology", "chain", "-sync-every", "1", "-data-dir", s.dir,
	}
	if s.sp.retain != 0 {
		args = append(args, "-retain", strconv.FormatInt(s.sp.retain, 10))
	}
	cmd := exec.Command(s.bin, args...)
	// The child dies with the benchmark even if the benchmark itself is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = io.Discard
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	begin := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("start proqld: %w", err)
	}
	s.cmd = cmd
	s.exited = make(chan struct{})
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := begin.Add(90 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return 0, fmt.Errorf("proqld exited during start-up: %s", strings.TrimSpace(stderr.String()))
		default:
		}
		resp, err := probe.Get("http://" + s.addr + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				elapsed := time.Since(begin)
				probe.CloseIdleConnections()
				return elapsed, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.kill()
	return 0, fmt.Errorf("proqld not healthy after 90s")
}

// kill sends SIGKILL and waits for the child to end.
func (s *server) kill() {
	if s.cmd == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.exited
	s.cmd = nil
	s.client.CloseIdleConnections()
}

// procStatusMB reads a memory field (VmHWM, VmRSS) of the child's
// /proc status in MB.
func (s *server) procStatusMB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field+":" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// sampleRSS reads the child's VmRSS every 100ms until stop is closed,
// then sends the samples and returns.
func (s *server) sampleRSS(stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var samples []float64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- samples
				return
			case <-tick.C:
				if mb, err := s.procStatusMB("VmRSS"); err == nil {
					samples = append(samples, mb)
				}
			}
		}
	}()
	return out
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// post sends one JSON request and decodes a 200 response into out.
// A non-200 status is an error carrying the server's envelope.
func (s *server) post(path string, body any, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := s.client.Post("http://"+s.addr+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

type statsResponse struct {
	Epoch            uint64 `json:"epoch"`
	RetainedVersions int64  `json:"retained_versions"`
	InstanceSize     int    `json:"instance_size"`
}

func (s *server) stats() (statsResponse, error) {
	var st statsResponse
	resp, err := s.client.Get("http://" + s.addr + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// Wire types of the /v1 API.
type queryRequest struct {
	Query   string `json:"query"`
	Backend string `json:"backend"`
	AsOf    uint64 `json:"as_of,omitempty"`
}

type queryResponse struct {
	Bindings  map[string][]string `json:"bindings"`
	Epoch     uint64              `json:"epoch"`
	AsOf      uint64              `json:"as_of"`
	ElapsedNS int64               `json:"elapsed_ns"`
}

type diffRequest struct {
	Query   string `json:"query"`
	Backend string `json:"backend"`
	From    uint64 `json:"from"`
	To      uint64 `json:"to"`
}

type diffResponse struct {
	Appeared    []string `json:"appeared"`
	Disappeared []string `json:"disappeared"`
	ElapsedNS   int64    `json:"elapsed_ns"`
}

type insertRequest struct {
	Relation string    `json:"relation"`
	Rows     [][]int64 `json:"rows"`
}

type deleteRequest struct {
	Relation string    `json:"relation"`
	Keys     [][]int64 `json:"keys"`
}

type mutateResponse struct {
	Applied int    `json:"applied"`
	Epoch   uint64 `json:"epoch"`
}
