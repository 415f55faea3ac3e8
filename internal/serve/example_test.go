package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	"hitsndiffs"
	"hitsndiffs/internal/serve"
)

// ExampleServer walks the minimal client path against the serving tier:
// create a tenant, stream observations, rank over HTTP. It doubles as the
// wire-format reference for the /v1 endpoints.
func ExampleServer() {
	srv, err := serve.New(serve.Config{RankOptions: []hitsndiffs.Option{hitsndiffs.WithSeed(1)}})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	call := func(path string, in, out any) {
		body, _ := json.Marshal(in)
		resp, err := http.Post(hs.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			log.Fatalf("%s: HTTP %d", path, resp.StatusCode)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Three users answer a two-question, two-option quiz. Users 0 and 1
	// agree on both items; user 2 dissents on both.
	call("/v1/tenants", serve.CreateTenantRequest{Name: "quiz", Users: 3, Items: 2, Options: []int{2}}, nil)
	var applied serve.ObserveResponse
	call("/v1/observebatch", serve.ObserveBatchRequest{Tenant: "quiz", Observations: []serve.Observation{
		{User: 0, Item: 0, Option: 0}, {User: 0, Item: 1, Option: 1},
		{User: 1, Item: 0, Option: 0}, {User: 1, Item: 1, Option: 1},
		{User: 2, Item: 0, Option: 1}, {User: 2, Item: 1, Option: 0},
	}}, &applied)
	fmt.Printf("applied %d observations at write generation %d\n", applied.Applied, applied.Generation)

	var rr serve.RankResponse
	call("/v1/rank", serve.RankRequest{Tenant: "quiz"}, &rr)
	fmt.Printf("ranked %d users at generation %d, converged=%v\n", len(rr.Scores), rr.Generation, rr.Converged)
	fmt.Printf("users 0 and 1 agree: equal scores = %v\n", rr.Scores[0] == rr.Scores[1])

	var labels serve.InferLabelsResponse
	call("/v1/inferlabels", serve.InferLabelsRequest{Tenant: "quiz"}, &labels)
	fmt.Printf("inferred answer key: %v\n", labels.Labels)
	// Output:
	// applied 6 observations at write generation 6
	// ranked 3 users at generation 6, converged=true
	// users 0 and 1 agree: equal scores = true
	// inferred answer key: [0 1]
}
