package wire

import (
	"fmt"
	"testing"
)

// BenchmarkReconnectResync measures one full reconnect cycle — kill every
// connection, redial, handshake + liveness probe, one opStoreInfo count
// check — plus the first op through the recovered transport, per
// iteration, across plain-partition sizes (nothing is re-shipped, so the
// size should not show). It is the price a Config.Reconnect client pays
// per transport failure.
func BenchmarkReconnectResync(b *testing.B) {
	for _, tuples := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("plainTuples=%d", tuples), func(b *testing.B) {
			cl := NewCloud()
			srv := newChaosServer(b, cl)
			rc := reconnectorFor(b, srv).WithStore(DefaultStore)
			if err := rc.Load(testRelation(tuples), "K"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 64; i++ {
				rc.Add([]byte{byte(i)}, nil, nil)
			}
			if err := rc.Flush(); err != nil {
				b.Fatal(err)
			}
			if _, err := rc.Fetch([]int{0}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.kill()
				srv.restart(b, cl)
				if _, err := rc.Fetch([]int{i % 64}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
