// Archive demonstrates the two-tier archival workflow JPEG2000 was
// designed for: a bit-exact lossless master plus a small lossy access
// copy of every image, written as real files with BMP round trips.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"

	"j2kcell"
	"j2kcell/internal/bmp"
)

func main() {
	dir, err := os.MkdirTemp("", "j2karchive")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("archive directory:", dir)

	for i, name := range []string{"dial-a", "dial-b", "dial-c"} {
		img := j2kcell.TestImage(640, 480, uint32(i+1))

		// Source "scan" as BMP.
		src := filepath.Join(dir, name+".bmp")
		f, err := os.Create(src)
		if err != nil {
			log.Fatal(err)
		}
		if err := bmp.Encode(f, img); err != nil {
			log.Fatal(err)
		}
		f.Close()

		// Lossless master.
		master, _, err := j2kcell.EncodeParallelContext(context.Background(), img,
			j2kcell.Options{Lossless: true}, runtime.GOMAXPROCS(0))
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".master.j2c"), master, 0o644); err != nil {
			log.Fatal(err)
		}

		// 20:1 access copy.
		access, _, err := j2kcell.EncodeParallelContext(context.Background(), img,
			j2kcell.Options{Rate: 0.05}, runtime.GOMAXPROCS(0))
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".access.j2c"), access, 0o644); err != nil {
			log.Fatal(err)
		}

		// Verify the master is truly lossless against the BMP on disk.
		g, err := os.Open(src)
		if err != nil {
			log.Fatal(err)
		}
		scanned, err := bmp.Decode(g)
		g.Close()
		if err != nil {
			log.Fatal(err)
		}
		restored, err := j2kcell.Decode(master)
		if err != nil {
			log.Fatal(err)
		}
		preview, err := j2kcell.Decode(access)
		if err != nil {
			log.Fatal(err)
		}
		raw := img.W * img.H * 3
		fmt.Printf("%s: raw %d B, master %d B (%.2f:1, exact=%v), access %d B (%.1f:1, %.1f dB)\n",
			name, raw, len(master), float64(raw)/float64(len(master)), scanned.Equal(restored),
			len(access), float64(raw)/float64(len(access)), scanned.PSNR(preview))
		if !scanned.Equal(restored) {
			log.Fatal("archival master failed verification")
		}
	}
}
